open Tdfa_ir
open Tdfa_dataflow
open Tdfa_regalloc

type diagnostic = {
  rule : string;
  label : Label.t option;
  index : int option;
  violation : string;
}

let diag ?label ?index rule fmt =
  Printf.ksprintf (fun violation -> { rule; label; index; violation }) fmt

let to_string d =
  let where =
    match (d.label, d.index) with
    | Some l, Some i -> Printf.sprintf " block %s, instr %d:" (Label.to_string l) i
    | Some l, None -> Printf.sprintf " block %s:" (Label.to_string l)
    | None, _ -> ""
  in
  Printf.sprintf "[%s]%s %s" d.rule where d.violation

let pp ppf d = Format.pp_print_string ppf (to_string d)

(* ------------------------------------------------------------------ *)
(* CFG integrity                                                        *)
(* ------------------------------------------------------------------ *)

let cfg (f : Func.t) =
  let errs = ref [] in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun l ->
          if not (Func.mem_block f l) then
            errs :=
              diag ~label:b.Block.label "cfg"
                "branch target %s does not exist" (Label.to_string l)
              :: !errs)
        (Block.successors b.Block.term))
    f.Func.blocks;
  let reach = Func.reachable f in
  List.iter
    (fun (b : Block.t) ->
      if not (Label.Set.mem b.Block.label reach) then
        errs :=
          diag ~label:b.Block.label "cfg" "block is unreachable from entry"
          :: !errs)
    f.Func.blocks;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Definite assignment (defs dominate uses on every path)               *)
(* ------------------------------------------------------------------ *)

let defs_dominate_uses (f : Func.t) =
  let errs = ref [] in
  let num = Numbering.make f in
  let n = Numbering.size num in
  let blocks = num.Numbering.blocks in
  let order = num.Numbering.postorder in
  let reach = Array.make (Array.length blocks) false in
  Array.iter (fun p -> reach.(p) <- true) order;
  (* Reachable predecessors; the join is an intersection, so their order
     does not matter. *)
  let preds = Array.make (Array.length blocks) [] in
  Array.iter
    (fun p ->
      Array.iter (fun s -> preds.(s) <- p :: preds.(s)) blocks.(p).Numbering.succs)
    order;
  let params = Bits.create n in
  List.iter (fun v -> Bits.add params (Numbering.id num v)) f.Func.params;
  let block_defs =
    Array.map
      (fun (b : Numbering.block) ->
        let ds = Bits.create n in
        Array.iter (fun d -> if d >= 0 then Bits.add ds d) b.Numbering.defs;
        ds)
      blocks
  in
  (* Forward all-paths fixpoint: a variable is definitely assigned at a
     block entry iff it is assigned along every path from the function
     entry. Intersection join, initialised to top. *)
  let in_sets = Array.map (fun _ -> Bits.create n) blocks in
  let out_sets = Array.map (fun _ -> Bits.full n) blocks in
  let rpo = Array.of_list (List.rev (Array.to_list order)) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let input = in_sets.(p) in
        (match preds.(p) with
         | q :: rest when p <> 0 ->
           Array.blit out_sets.(q) 0 input 0 (Array.length input);
           List.iter (fun q -> Bits.inter_into input out_sets.(q)) rest
         | _ -> Array.blit params 0 input 0 (Array.length input));
        let out = out_sets.(p) and ds = block_defs.(p) in
        for w = 0 to Array.length out - 1 do
          let x = input.(w) lor ds.(w) in
          if x <> out.(w) then begin
            out.(w) <- x;
            changed := true
          end
        done)
      rpo
  done;
  let ever_defined = Array.copy params in
  Array.iter (fun ds -> Bits.union_into ever_defined ds) block_defs;
  let rd = lazy (Reaching_defs.analyze f) in
  let explain l v =
    if not (Bits.mem ever_defined v) then "is never defined"
    else
      let v = num.Numbering.vars.(v) in
      let sites =
        Reaching_defs.Def_set.elements
          (Reaching_defs.defs_of_var_at (Lazy.force rd) l v)
      in
      match sites with
      | [] -> "is not defined before this point on any path"
      | d :: _ ->
        Printf.sprintf
          "is not defined on every path to this point (one reaching def at \
           %s.%d)"
          (Label.to_string d.Reaching_defs.Def.label) d.Reaching_defs.Def.index
  in
  let name v = Var.to_string num.Numbering.vars.(v) in
  Array.iter
    (fun p ->
      let b = blocks.(p) in
      let l = b.Numbering.label in
      let assigned = Array.copy in_sets.(p) in
      Array.iteri
        (fun index d ->
          for k = b.Numbering.use_at.(index) to b.Numbering.use_at.(index + 1) - 1 do
            let v = b.Numbering.use_ids.(k) in
            if not (Bits.mem assigned v) then
              errs :=
                diag ~label:l ~index "use-undef" "read of %s which %s" (name v)
                  (explain l v)
                :: !errs
          done;
          if d >= 0 then Bits.add assigned d)
        b.Numbering.defs;
      Array.iter
        (fun v ->
          if not (Bits.mem assigned v) then
            errs :=
              diag ~label:l "use-undef" "terminator reads %s which %s" (name v)
                (explain l v)
              :: !errs)
        b.Numbering.term_ids)
    rpo;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Spill-slot balance                                                   *)
(* ------------------------------------------------------------------ *)

let spill_slots (f : Func.t) =
  (* A spill base is a variable whose unique definition is
     [const Spill.base_address]. *)
  let def_count = Var.Tbl.create 16 in
  let const_val = Var.Tbl.create 16 in
  Func.iter_instrs
    (fun _ _ i ->
      match Instr.def i with
      | Some d ->
        Var.Tbl.replace def_count d
          (1 + Option.value ~default:0 (Var.Tbl.find_opt def_count d));
        (match i with
         | Instr.Const (_, k) -> Var.Tbl.replace const_val d k
         | _ -> ())
      | None -> ())
    f;
  let is_base v =
    Var.Tbl.find_opt def_count v = Some 1
    && Var.Tbl.find_opt const_val v = Some Spill.base_address
  in
  let read = Hashtbl.create 8 and written = Hashtbl.create 8 in
  Func.iter_instrs
    (fun l index i ->
      match i with
      | Instr.Load (_, base, off) when is_base base ->
        if not (Hashtbl.mem read off) then Hashtbl.replace read off (l, index)
      | Instr.Store (_, base, off) when is_base base ->
        Hashtbl.replace written off ()
      | _ -> ())
    f;
  Hashtbl.fold
    (fun off (l, index) acc ->
      if Hashtbl.mem written off then acc
      else
        diag ~label:l ~index "spill-slot"
          "spill slot %d is read but never written" off
        :: acc)
    read []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Post-allocation register consistency                                 *)
(* ------------------------------------------------------------------ *)

let allocation ~layout (f : Func.t) assignment =
  let errs = ref [] in
  List.iter
    (fun (v, c) ->
      if not (Tdfa_floorplan.Layout.in_range layout c) then
        errs :=
          diag "reg-alloc" "%s is assigned cell %d outside the %dx%d layout"
            (Var.to_string v) c layout.Tdfa_floorplan.Layout.rows
            layout.Tdfa_floorplan.Layout.cols
          :: !errs)
    (Assignment.bindings assignment);
  let live = Liveness.analyze f in
  let num = Liveness.numbering live in
  let var v = num.Numbering.vars.(v) in
  let reported = Hashtbl.create 8 in
  let cell_of = Array.map (Assignment.cell_of_var assignment) num.Numbering.vars in
  let report ?index label v w c fmt_tail =
    let key = if Var.compare v w < 0 then (v, w) else (w, v) in
    if not (Hashtbl.mem reported key) then begin
      Hashtbl.replace reported key ();
      errs :=
        diag ~label ?index "reg-alloc" "%s and %s %s but share cell %d"
          (Var.to_string v) (Var.to_string w) fmt_tail c
        :: !errs
    end
  in
  (* Each block is walked once. A walk runs last instruction first, so it
     collects the colliding pairs of every point, and they are reported
     afterwards in program order: first every definition point, then
     the parameters, then the live sets. *)
  let by_cell = Hashtbl.create 8 in
  (* Pairs [(v, w, c)] of a live set, [v] in ascending order, [w] the
     first member found in cell [c]. *)
  let sharing s =
    Hashtbl.reset by_cell;
    let pairs = ref [] in
    Bits.iter
      (fun v ->
        match cell_of.(v) with
        | Some c -> (
          match Hashtbl.find_opt by_cell c with
          | Some w -> pairs := (v, w, c) :: !pairs
          | None -> Hashtbl.replace by_cell c v)
        | None -> ())
      s;
    List.rev !pairs
  in
  let walks =
    List.map
      (fun (b : Block.t) ->
        let l = b.Block.label in
        let defs = ref [] and sets = ref [] in
        Liveness.walk live l (fun index d after ->
            (match if d >= 0 then cell_of.(d) else None with
             | None -> ()
             | Some c ->
               (* A def lands in its cell even when the defined variable
                  is dead afterwards, so it clobbers any other variable
                  live after the instruction that shares the cell. A move
                  whose source shares the cell rewrites the same value (a
                  coalesced pair) and is exempt. *)
               let exempt =
                 match b.Block.body.(index) with
                 | Instr.Unop (Instr.Mov, _, s) -> Numbering.id num s
                 | _ -> -1
               in
               let hits = ref [] in
               Bits.iter
                 (fun w ->
                   if w <> d && w <> exempt && cell_of.(w) = Some c then
                     hits := (index, d, w, c) :: !hits)
                 after;
               defs := List.rev_append !hits !defs);
            sets := (index, sharing after) :: !sets);
        (l, !defs, !sets))
      f.Func.blocks
  in
  List.iter
    (fun (l, defs, _) ->
      List.iter
        (fun (index, d, w, c) ->
          report ~index l (var d) (var w) c "collide at a definition point")
        defs)
    walks;
  (* Parameters are defined on entry: they may not share a cell with each
     other or with anything live into the entry block. *)
  let entry = Func.entry_label f in
  let entry_live = Liveness.live_in_bits live entry in
  List.iteri
    (fun i p ->
      match Assignment.cell_of_var assignment p with
      | None -> ()
      | Some c ->
        List.iteri
          (fun j q ->
            if i < j && Assignment.cell_of_var assignment q = Some c then
              report entry p q c "are both parameters")
          f.Func.params;
        Bits.iter
          (fun w ->
            if (not (Var.equal (var w) p)) && cell_of.(w) = Some c then
              report entry p (var w) c "collide at function entry")
          entry_live)
    f.Func.params;
  let report_sharing ?index label pairs =
    List.iter
      (fun (v, w, c) ->
        report ?index label (var v) (var w) c "are live together")
      pairs
  in
  List.iter
    (fun (l, _, sets) ->
      report_sharing l (sharing (Liveness.live_in_bits live l));
      List.iter (fun (index, pairs) -> report_sharing ~index l pairs) sets)
    walks;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* VLIW bundle legality                                                 *)
(* ------------------------------------------------------------------ *)

let bundles ~width (f : Func.t) sched =
  let errs = ref [] in
  List.iter
    (fun (l, _) ->
      if not (Func.mem_block f l) then
        errs :=
          diag ~label:l "vliw" "schedule names a block that does not exist"
          :: !errs)
    sched;
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      match List.assoc_opt l sched with
      | None ->
        if Block.num_instrs b > 0 then
          errs := diag ~label:l "vliw" "block has no schedule" :: !errs
      | Some bs ->
        let body = b.Block.body in
        let n = Array.length body in
        let matched = Array.make n false in
        (* bundle index of each matched original instruction *)
        let bundle_of = Array.make n (-1) in
        List.iteri
          (fun k bundle ->
            if List.length bundle > width then
              errs :=
                diag ~label:l "vliw" "bundle %d has %d slots but width is %d"
                  k (List.length bundle) width
                :: !errs;
            List.iter
              (fun i ->
                (* Earliest unmatched structurally-equal original site. *)
                let rec find j =
                  if j >= n then None
                  else if (not matched.(j)) && Instr.equal body.(j) i then
                    Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some j ->
                  matched.(j) <- true;
                  bundle_of.(j) <- k
                | None ->
                  errs :=
                    diag ~label:l "vliw"
                      "bundle %d contains %s which is not in the block" k
                      (Instr.to_string i)
                    :: !errs)
              bundle)
          bs;
        Array.iteri
          (fun j ok ->
            if not ok then
              errs :=
                diag ~label:l ~index:j "vliw" "%s is missing from the schedule"
                  (Instr.to_string body.(j))
                :: !errs)
          matched;
        let preds = Deps.block_preds body in
        Array.iteri
          (fun j ok ->
            if ok then
              List.iter
                (fun i ->
                  if matched.(i) && bundle_of.(i) >= bundle_of.(j) then
                    errs :=
                      diag ~label:l ~index:j "vliw"
                        "dependence %d -> %d not respected (bundles %d and %d)"
                        i j bundle_of.(i) bundle_of.(j)
                      :: !errs)
                preds.(j))
          matched)
    f.Func.blocks;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Thermal state sanity                                                 *)
(* ------------------------------------------------------------------ *)

let thermal_state s =
  let module T = Tdfa_core.Thermal_state in
  let errs = ref [] in
  for p = 0 to T.num_points s - 1 do
    let t = T.get s p in
    if Float.is_nan t then
      errs := diag ~index:p "thermal" "point %d is NaN" p :: !errs
    else if not (Float.is_finite t) then
      errs := diag ~index:p "thermal" "point %d is infinite" p :: !errs
    else if t <= 0.0 then
      errs :=
        diag ~index:p "thermal" "point %d is %.2f K (non-physical)" p t
        :: !errs
  done;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let func f = cfg f @ defs_dominate_uses f @ spill_slots f

let all ?layout ?assignment f =
  let base = func f in
  match (layout, assignment) with
  | Some layout, Some assignment -> base @ allocation ~layout f assignment
  | _ -> base
