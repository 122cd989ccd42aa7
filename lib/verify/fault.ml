open Tdfa_ir
open Tdfa_dataflow
open Tdfa_regalloc

type kind = Drop_def | Retarget_branch | Clobber_register | Swap_operands

let all_kinds = [ Drop_def; Retarget_branch; Clobber_register; Swap_operands ]

let kind_name = function
  | Drop_def -> "drop-def"
  | Retarget_branch -> "retarget-branch"
  | Clobber_register -> "clobber-register"
  | Swap_operands -> "swap-operands"

type t = {
  kind : kind;
  description : string;
  func : Func.t;
  assignment : Assignment.t option;
}

let rng_of seed kind =
  Random.State.make [| seed; Hashtbl.hash (kind_name kind) |]

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* Number of definition sites of each variable. *)
let def_counts f =
  let counts = Var.Tbl.create 16 in
  Func.iter_instrs
    (fun _ _ i ->
      match Instr.def i with
      | Some d ->
        Var.Tbl.replace counts d
          (1 + Option.value ~default:0 (Var.Tbl.find_opt counts d))
      | None -> ())
    f;
  counts

(* Sites whose sole definition of a non-parameter variable is still used
   elsewhere: erasing the definition is guaranteed to leave a dangling
   use behind. *)
let sole_def_sites (f : Func.t) =
  let counts = def_counts f in
  let is_param v = List.exists (Var.equal v) f.Func.params in
  let used_elsewhere site v =
    Func.fold_instrs
      (fun acc l i instr ->
        acc || ((l, i) <> site && List.exists (Var.equal v) (Instr.uses instr)))
      false f
    || List.exists
         (fun (b : Block.t) ->
           List.exists (Var.equal v) (Block.term_uses b.Block.term))
         f.Func.blocks
  in
  Func.fold_instrs
    (fun acc l i instr ->
      match Instr.def instr with
      | Some d
        when Var.Tbl.find_opt counts d = Some 1
             && (not (is_param d))
             && used_elsewhere (l, i) d ->
        (l, i, d) :: acc
      | Some _ | None -> acc)
    [] f
  |> List.rev

let replace_instr (f : Func.t) label index instr =
  let b = Func.find_block f label in
  let body = Array.copy b.Block.body in
  body.(index) <- instr;
  Func.replace_block f { b with Block.body = body }

let fresh_label (f : Func.t) =
  let rec go n =
    let l = Label.of_string (Printf.sprintf "__bogus%d" n) in
    if Func.mem_block f l then go (n + 1) else l
  in
  go 0

let drop_def rng (f : Func.t) =
  match pick rng (sole_def_sites f) with
  | None -> None
  | Some (l, i, d) ->
    Some
      ( replace_instr f l i Instr.Nop,
        Printf.sprintf "erased the sole definition of %s at %s.%d"
          (Var.to_string d) (Label.to_string l) i )

let retarget_branch rng (f : Func.t) =
  let candidates =
    List.filter
      (fun (b : Block.t) -> Block.successors b.Block.term <> [])
      f.Func.blocks
  in
  match pick rng candidates with
  | None -> None
  | Some b ->
    let bogus = fresh_label f in
    let term =
      match b.Block.term with
      | Block.Jump _ -> Block.Jump bogus
      | Block.Branch (c, t, e) ->
        if Random.State.bool rng then Block.Branch (c, bogus, e)
        else Block.Branch (c, t, bogus)
      | Block.Return _ -> assert false
    in
    Some
      ( Func.replace_block f { b with Block.term },
        Printf.sprintf "retargeted an edge of %s at nonexistent %s"
          (Label.to_string b.Block.label) (Label.to_string bogus) )

let clobber_register rng (f : Func.t) assignment =
  let live = Liveness.analyze f in
  let g = Interference.build f live in
  let pairs =
    List.concat_map
      (fun v ->
        match Assignment.cell_of_var assignment v with
        | None -> []
        | Some _ ->
          Var.Set.fold
            (fun w acc ->
              if Var.compare v w < 0 then
                match Assignment.cell_of_var assignment w with
                | Some cw -> (v, w, cw) :: acc
                | None -> acc
              else acc)
            (Interference.neighbors g v) [])
      (Interference.vars g)
  in
  match pick rng pairs with
  | None -> None
  | Some (v, w, cw) ->
    Some
      ( Assignment.add assignment v cw,
        Printf.sprintf "reassigned %s onto cell %d shared with live %s"
          (Var.to_string v) cw (Var.to_string w) )

let swap_operands rng (f : Func.t) =
  let counts = def_counts f in
  let is_param v = List.exists (Var.equal v) f.Func.params in
  let sites =
    Func.fold_instrs
      (fun acc l i instr ->
        match instr with
        | Instr.Binop (op, d, s1, s2)
          when Var.Tbl.find_opt counts d = Some 1
               && (not (is_param d))
               && not (Var.equal d s1) ->
          (l, i, Instr.Binop (op, s1, d, s2), d) :: acc
        | _ -> acc)
      [] f
    |> List.rev
  in
  match pick rng sites with
  | None -> None
  | Some (l, i, instr, d) ->
    Some
      ( replace_instr f l i instr,
        Printf.sprintf
          "transposed destination %s with its first operand at %s.%d"
          (Var.to_string d) (Label.to_string l) i )

let inject ~seed ~kind ?assignment (f : Func.t) =
  let rng = rng_of seed kind in
  let wrap ?assignment (func, description) =
    { kind; description; func; assignment }
  in
  match kind with
  | Drop_def -> Option.map wrap (drop_def rng f)
  | Retarget_branch -> Option.map wrap (retarget_branch rng f)
  | Swap_operands -> Option.map wrap (swap_operands rng f)
  | Clobber_register -> (
    match assignment with
    | None -> None
    | Some a ->
      Option.map
        (fun (a', description) ->
          wrap ~assignment:a' (f, description))
        (clobber_register rng f a))

let inject_all ~seed ?assignment f =
  List.filter_map (fun kind -> inject ~seed ~kind ?assignment f) all_kinds

let corrupt_recording ~seed p = Tdfa_core.Incremental.poison_prior ~seed p

(* ------------------------------------------------------------------ *)
(* Seeded fault plans                                                   *)
(* ------------------------------------------------------------------ *)

module Plan = struct
  type site =
    | Frame_garbage
    | Disconnect
    | Corrupt_recording
    | Worker_stall
    | Torn_cache
    | Transient
    | Broken_ir
    | Session_crash

  let all_sites =
    [
      Frame_garbage; Disconnect; Corrupt_recording; Worker_stall; Torn_cache;
      Transient; Broken_ir; Session_crash;
    ]

  let site_name = function
    | Frame_garbage -> "frame-garbage"
    | Disconnect -> "disconnect"
    | Corrupt_recording -> "corrupt-recording"
    | Worker_stall -> "worker-stall"
    | Torn_cache -> "torn-cache"
    | Transient -> "transient"
    | Broken_ir -> "broken-ir"
    | Session_crash -> "session-crash"

  let site_of_string s =
    List.find_opt (fun k -> String.equal (site_name k) s) all_sites

  type t = { seed : int; rates : (site * float) list; stall_ms : float }

  let none = { seed = 0; rates = []; stall_ms = 0.0 }

  let default ~seed =
    {
      seed;
      rates =
        [
          (Frame_garbage, 0.05);
          (Disconnect, 0.05);
          (Corrupt_recording, 0.2);
          (Worker_stall, 0.1);
          (Torn_cache, 0.2);
          (Transient, 0.15);
          (Broken_ir, 0.05);
          (Session_crash, 0.05);
        ];
      stall_ms = 40.0;
    }

  let rate t site =
    Option.value ~default:0.0 (List.assoc_opt site t.rates)

  let to_string t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "# tdfa fault plan\n";
    Buffer.add_string buf (Printf.sprintf "seed = %d\n" t.seed);
    Buffer.add_string buf (Printf.sprintf "stall-ms = %g\n" t.stall_ms);
    List.iter
      (fun site ->
        let r = rate t site in
        if r > 0.0 then
          Buffer.add_string buf
            (Printf.sprintf "%s = %g\n" (site_name site) r))
      all_sites;
    Buffer.contents buf

  let max_stall_ms = 60_000.0

  let of_string source =
    let lines = String.split_on_char '\n' source in
    let rec go lineno acc = function
      | [] -> Ok acc
      | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line = "" then go (lineno + 1) acc rest
        else
          match String.index_opt line '=' with
          | None ->
            Error
              (Printf.sprintf "line %d: expected `key = value', got %S"
                 lineno line)
          | Some i -> (
            let key = String.trim (String.sub line 0 i) in
            let v =
              String.trim
                (String.sub line (i + 1) (String.length line - i - 1))
            in
            match key with
            | "seed" -> (
              match int_of_string_opt v with
              | Some seed -> go (lineno + 1) { acc with seed } rest
              | None -> Error (Printf.sprintf "line %d: bad seed %S" lineno v))
            | "stall-ms" -> (
              (* A stall must stay a bounded sleep: [Unix.sleepf] rejects
                 non-finite durations and a huge one wedges a worker. *)
              match float_of_string_opt v with
              | Some stall_ms when stall_ms >= 0.0 && stall_ms <= max_stall_ms
                ->
                go (lineno + 1) { acc with stall_ms } rest
              | Some _ ->
                Error
                  (Printf.sprintf "line %d: stall-ms %S not in [0, %g]" lineno
                     v max_stall_ms)
              | None ->
                Error (Printf.sprintf "line %d: bad stall-ms %S" lineno v))
            | _ -> (
              match (site_of_string key, float_of_string_opt v) with
              | Some site, Some r when r >= 0.0 && r <= 1.0 ->
                go (lineno + 1)
                  {
                    acc with
                    rates = (site, r) :: List.remove_assoc site acc.rates;
                  }
                  rest
              | Some _, _ ->
                Error
                  (Printf.sprintf "line %d: rate %S not in [0,1]" lineno v)
              | None, _ ->
                Error
                  (Printf.sprintf
                     "line %d: unknown fault site %S (known: %s)" lineno key
                     (String.concat ", " (List.map site_name all_sites))))))
    in
    go 1 none lines

  let of_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | source -> of_string source
    | exception Sys_error msg -> Error msg

  type injector = {
    plan : t;
    mutex : Mutex.t;
    rng : Random.State.t;
    mutable drawn : int;
  }

  let injector plan =
    {
      plan;
      mutex = Mutex.create ();
      rng = Random.State.make [| plan.seed; 0x7dfa |];
      drawn = 0;
    }

  let plan i = i.plan

  let fires i site =
    let r = rate i.plan site in
    if r <= 0.0 then false
    else begin
      Mutex.lock i.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock i.mutex)
        (fun () ->
          i.drawn <- i.drawn + 1;
          Random.State.float i.rng 1.0 < r)
    end

  let draws i =
    Mutex.lock i.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock i.mutex)
      (fun () -> i.drawn)

  let stall_s i = i.plan.stall_ms /. 1000.0
end

type thermal_kind = Nan | Inf

let inject_state ~seed ~kind s =
  let module T = Tdfa_core.Thermal_state in
  let rng = Random.State.make [| seed; (match kind with Nan -> 1 | Inf -> 2) |] in
  let s' = T.copy s in
  let p = Random.State.int rng (T.num_points s') in
  T.set s' p (match kind with Nan -> Float.nan | Inf -> Float.infinity);
  (s', p)
