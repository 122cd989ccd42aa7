open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_regalloc
open Lint

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Loop-frequency-weighted access weight of every variable, plus the
   mean over variables that are accessed at all — the yardstick several
   thermal rules compare against. *)
let weights ctx =
  let vars = Var.Set.elements (Func.all_vars ctx.func) in
  let ws =
    List.map (fun v -> (v, Use_def.weighted_access_count ctx.ud ctx.loops v)) vars
  in
  let active = List.filter (fun (_, w) -> w > 0.0) ws in
  let mean =
    match active with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun acc (_, w) -> acc +. w) 0.0 active
      /. float_of_int (List.length active)
  in
  (ws, mean)

(* Blocks where [v] is live on entry. *)
let live_blocks ctx v =
  List.filter
    (fun (b : Block.t) -> Var.Set.mem v (Liveness.live_in ctx.live b.Block.label))
    ctx.func.Func.blocks
  |> List.length

(* Deepest-loop access site of [v], for attributing variable-level
   findings to a block: the def or use site with the largest loop depth,
   first in program order on ties. *)
let hottest_site ctx v =
  let sites = Use_def.defs ctx.ud v @ Use_def.uses ctx.ud v in
  List.fold_left
    (fun acc (s : Use_def.site) ->
      let d = Loops.depth ctx.loops s.Use_def.label in
      match acc with
      | Some (_, best) when best >= d -> acc
      | _ -> Some (s, d))
    None sites

let has_spill_code ctx =
  Func.fold_instrs
    (fun acc _ _ i ->
      acc
      ||
      match i with
      | Instr.Const (_, k) -> k >= Spill.base_address
      | _ -> false)
    false ctx.func

let is_param ctx v = List.exists (Var.equal v) ctx.func.Func.params

(* ------------------------------------------------------------------ *)
(* Thermal rules                                                        *)
(* ------------------------------------------------------------------ *)

(* §4 / Fig. 1: the chessboard (and every spreading policy) stops
   working once more than half the register file is simultaneously
   live — there is nowhere cold left to spread to. Past the full
   capacity the allocator must spill, which the paper treats as a
   thermal optimization in its own right. *)
let pressure_rule =
  let id = "pressure-exceeds-chessboard" in
  {
    id;
    summary =
      "register pressure above 50 % of the RF, the paper's hot-spot \
       breakdown threshold (error above 100 %)";
    default_severity = Warn;
    check =
      (fun ctx ->
        let maxlive = Liveness.max_pressure ctx.live in
        let cap = Layout.num_cells ctx.layout in
        let pct = 100.0 *. float_of_int maxlive /. float_of_int cap in
        if maxlive > cap then
          [
            finding ctx ~rule_id:id ~severity:Error
              ~hint:"spill until MAXLIVE fits the register file"
              (Printf.sprintf
                 "MAXLIVE %d exceeds the %d-cell register file (%.0f %%); \
                  spilling is unavoidable and hot spots are certain"
                 maxlive cap pct);
          ]
        else if 2 * maxlive > cap then
          [
            finding ctx ~rule_id:id ~severity:Warn
              ~hint:
                "spill or split live ranges to get below 50 % pressure \
                 before relying on a spreading policy"
              (Printf.sprintf
                 "MAXLIVE %d is above 50 %% of the %d-cell register file \
                  (%.0f %%) — past the chessboard breakdown of Fig. 1"
                 maxlive cap pct);
          ]
        else []);
  }

(* Static access counts weighted by loop-nesting frequency: a variable
   hammered inside deep loops concentrates heating on whichever cell it
   is assigned to, regardless of the policy. *)
let density_factor = 4.0
let density_floor = 24.0

let hot_loop_rule =
  let id = "hot-loop-access-density" in
  {
    id;
    summary =
      "loop-frequency-weighted access count far above the function mean";
    default_severity = Warn;
    check =
      (fun ctx ->
        let ws, mean = weights ctx in
        if mean <= 0.0 then []
        else
          List.filter_map
            (fun (v, w) ->
              match hottest_site ctx v with
              | Some (site, depth) when
                  depth >= 1 && w >= density_factor *. mean
                  && w >= density_floor ->
                Some
                  (finding ctx ~rule_id:id ~severity:Warn
                     ~label:site.Use_def.label ~index:site.Use_def.index
                     ~hint:
                       "split the live range across loop iterations or \
                        rotate the assignment"
                     (Printf.sprintf
                        "%s: %.0f weighted accesses (%.1fx the function \
                         mean) concentrated at loop depth %d"
                        (Var.to_string v) w (w /. mean) depth))
              | _ -> None)
            ws);
  }

(* Fig. 1(a): first-fit packs hot variables into adjacent cells and the
   laterally-coupled RC network turns the cluster into one big hot
   spot. Flag interfering (simultaneously live) hot variables whose
   cells are 4-neighbours under the floorplan. *)
let cluster_factor = 2.0

let clustered_rule =
  let id = "clustered-assignment" in
  {
    id;
    summary =
      "two hot, simultaneously-live variables on adjacent register cells";
    default_severity = Warn;
    check =
      (fun ctx ->
        let ws, mean = weights ctx in
        if mean <= 0.0 then []
        else begin
          let hot =
            List.filter (fun (_, w) -> w >= cluster_factor *. mean) ws
          in
          let interference = Interference.build ctx.func ctx.live in
          let qualifier = if ctx.predicted then "predicted cell" else "cell" in
          List.concat_map
            (fun (v1, w1) ->
              List.filter_map
                (fun (v2, w2) ->
                  if Var.compare v1 v2 >= 0 then None
                  else
                    match
                      ( Assignment.cell_of_var ctx.assignment v1,
                        Assignment.cell_of_var ctx.assignment v2 )
                    with
                    | Some c1, Some c2
                      when List.mem c2 (Layout.neighbors ctx.layout c1)
                           && Interference.interferes interference v1 v2 ->
                      Some
                        (finding ctx ~rule_id:id ~severity:Warn
                           ~hint:
                             "assign hot variables to disparate regions \
                              (thermal-spread or chessboard policy)"
                           (Printf.sprintf
                              "%s (%s %d, weight %.0f) and %s (%s %d, \
                               weight %.0f) are adjacent and live \
                               simultaneously — a Fig. 1(a) hot cluster"
                              (Var.to_string v1) qualifier c1 w1
                              (Var.to_string v2) qualifier c2 w2))
                    | _ -> None)
                hot)
            hot
        end);
  }

(* A hot variable live across most of the function keeps one cell warm
   for the whole execution; splitting the range moves later accesses to
   a different (colder) cell. Skip functions that already carry split
   copies. *)
let long_range_rule =
  let id = "long-live-range-no-split" in
  {
    id;
    summary = "hot variable live across most blocks and never split";
    default_severity = Warn;
    check =
      (fun ctx ->
        let blocks = List.length ctx.func.Func.blocks in
        if blocks < 4 then []
        else begin
          let ws, mean = weights ctx in
          let copied v =
            Func.fold_instrs
              (fun acc _ _ i ->
                acc
                ||
                match i with
                | Instr.Unop (Instr.Mov, _, s) -> Var.equal s v
                | _ -> false)
              false ctx.func
          in
          List.filter_map
            (fun (v, w) ->
              let span = live_blocks ctx v in
              if
                w >= mean && mean > 0.0
                && float_of_int span >= 0.6 *. float_of_int blocks
                && span >= 4
                && not (copied v)
              then
                Some
                  (finding ctx ~rule_id:id ~severity:Warn
                     ~hint:"split the range (split_ranges) at a loop boundary"
                     (Printf.sprintf
                        "%s is live through %d of %d blocks with weight \
                         %.0f and is never split or copied"
                        (Var.to_string v) span blocks w))
              else None)
            ws
        end);
  }

(* §4 lists spilling as the first thermal optimization; a function deep
   in the pressure zone that never spills anything is leaving the
   easiest knob unturned. The best candidate is the classic one: long
   range, few accesses. *)
let spill_candidate_rule =
  let id = "spill-candidate-never-spilled" in
  {
    id;
    summary =
      "pressure past the breakdown threshold with an obvious spill \
       candidate and no spill code";
    default_severity = Warn;
    check =
      (fun ctx ->
        let maxlive = Liveness.max_pressure ctx.live in
        let cap = Layout.num_cells ctx.layout in
        if 2 * maxlive <= cap || has_spill_code ctx then []
        else begin
          let ws, _ = weights ctx in
          let candidates =
            List.filter_map
              (fun (v, w) ->
                if is_param ctx v then None
                else
                  let span = live_blocks ctx v in
                  if span >= 3 && w > 0.0 then
                    Some (v, w, span, float_of_int span /. (1.0 +. w))
                  else None)
              ws
          in
          let best =
            List.fold_left
              (fun acc (v, w, span, score) ->
                match acc with
                | Some (bv, _, _, bs)
                  when bs > score || (bs = score && Var.compare bv v <= 0) ->
                  acc
                | _ -> Some (v, w, span, score))
              None candidates
          in
          match best with
          | None -> []
          | Some (v, w, span, _) ->
            [
              finding ctx ~rule_id:id ~severity:Warn
                ~hint:"spill it (spill_critical) to relieve the pressure"
                (Printf.sprintf
                   "MAXLIVE %d of %d cells yet nothing is spilled; %s is \
                    live across %d blocks with only %.0f weighted accesses \
                    — a cheap spill"
                   maxlive cap (Var.to_string v) span w);
            ]
        end);
  }

(* Adjacent instructions hitting the same register leave the cell no
   cycle to cool — the duty-cycle effect the scheduler and the NOP
   inserter both target. Only worth flagging inside loops. *)
let back_to_back_floor = 4

let back_to_back_rule =
  let id = "back-to-back-hot-access" in
  {
    id;
    summary =
      "many adjacent instruction pairs reusing a register inside a loop";
    default_severity = Info;
    check =
      (fun ctx ->
        List.filter_map
          (fun (b : Block.t) ->
            let depth = Loops.depth ctx.loops b.Block.label in
            if depth < 1 then None
            else begin
              let body = b.Block.body in
              let pairs = ref 0 in
              for i = 0 to Array.length body - 2 do
                let a = Instr.accessed body.(i) in
                let c = Instr.accessed body.(i + 1) in
                if List.exists (fun v -> List.exists (Var.equal v) c) a then
                  incr pairs
              done;
              if !pairs >= back_to_back_floor then
                Some
                  (finding ctx ~rule_id:id ~severity:Info
                     ~label:b.Block.label
                     ~hint:
                       "interleave independent instructions (schedule) or \
                        insert cooling NOPs (nop_insert)"
                     (Printf.sprintf
                        "%d back-to-back same-register access pairs at \
                         loop depth %d"
                        !pairs depth))
              else None
            end)
          ctx.func.Func.blocks);
  }

(* One cell carrying the bulk of the whole instruction stream — the
   accumulator pattern: a variable read and rewritten on nearly every
   instruction keeps its cell permanently powered, with no slack cycles
   to cool, for long enough to saturate the thermal rise. This is the
   single strongest static predictor of a fixpoint hot spot (E19). *)
let sustained_floor = 40
let sustained_share = 0.8

let hot_accumulator_rule =
  let id = "hot-accumulator" in
  {
    id;
    summary =
      "one cell carries most of the instruction stream's accesses, with \
       no time to cool";
    default_severity = Warn;
    check =
      (fun ctx ->
        let n_instrs =
          List.fold_left
            (fun acc (b : Block.t) -> acc + Array.length b.Block.body)
            0 ctx.func.Func.blocks
        in
        if n_instrs = 0 then []
        else begin
          (* Per-cell access counts over the whole stream (a def and a
             use in the same instruction both heat the cell). *)
          let counts = Hashtbl.create 16 in
          let vars_of_cell = Hashtbl.create 16 in
          Func.fold_instrs
            (fun () _ _ i ->
              List.iter
                (fun v ->
                  match Assignment.cell_of_var ctx.assignment v with
                  | None -> ()
                  | Some c ->
                    Hashtbl.replace counts c
                      (1 + Option.value ~default:0 (Hashtbl.find_opt counts c));
                    let vs =
                      Option.value ~default:[] (Hashtbl.find_opt vars_of_cell c)
                    in
                    if not (List.exists (Var.equal v) vs) then
                      Hashtbl.replace vars_of_cell c (v :: vs))
                (Instr.uses i @ Option.to_list (Instr.def i)))
            () ctx.func;
          let qualifier = if ctx.predicted then "predicted cell" else "cell" in
          Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts []
          |> List.filter (fun (_, n) ->
                 n >= sustained_floor
                 && float_of_int n >= sustained_share *. float_of_int n_instrs)
          |> List.sort compare
          |> List.map (fun (c, n) ->
                 let vars =
                   Option.value ~default:[] (Hashtbl.find_opt vars_of_cell c)
                   |> List.sort Var.compare |> List.map Var.to_string
                   |> String.concat ", "
                 in
                 finding ctx ~rule_id:id ~severity:Warn
                   ~hint:
                     "break the accumulator chain into independent partial \
                      sums, or split its live range mid-stream"
                   (Printf.sprintf
                      "%s %d (%s) is accessed %d times across the \
                       %d-instruction stream (%.0f %%) and never cools"
                      qualifier c vars n n_instrs
                      (100.0 *. float_of_int n /. float_of_int n_instrs)))
        end);
  }

(* ------------------------------------------------------------------ *)
(* Hygiene rules (Tdfa_verify.Check vocabulary)                         *)
(* ------------------------------------------------------------------ *)

let dead_def_rule =
  let id = "dead-def" in
  {
    id;
    summary = "pure instruction whose definition is never used";
    default_severity = Warn;
    check =
      (fun ctx ->
        List.concat_map
          (fun (b : Block.t) ->
            let label = b.Block.label and dead = ref [] in
            Liveness.walk ctx.live label (fun index d after ->
                if d >= 0 && Instr.is_pure b.Block.body.(index)
                   && not (Bits.mem after d)
                then dead := index :: !dead);
            List.map
              (fun index ->
                let d = Option.get (Instr.def b.Block.body.(index)) in
                finding ctx ~rule_id:id ~severity:Warn ~label ~index
                  ~hint:"delete it (cleanup)"
                  (Printf.sprintf "definition of %s is never used"
                     (Var.to_string d)))
              !dead)
          ctx.func.Func.blocks);
  }

let redundant_copy_rule =
  let id = "redundant-copy" in
  {
    id;
    summary = "copy with no effect (self-move, or source and target share \
               a cell)";
    default_severity = Info;
    check =
      (fun ctx ->
        Func.fold_instrs
          (fun acc label index i ->
            match i with
            | Instr.Unop (Instr.Mov, d, s) when Var.equal d s ->
              finding ctx ~rule_id:id ~severity:Info ~label ~index
                ~hint:"delete it (cleanup)"
                (Printf.sprintf "%s is copied to itself" (Var.to_string d))
              :: acc
            | Instr.Unop (Instr.Mov, d, s) when not ctx.predicted -> (
              match
                ( Assignment.cell_of_var ctx.assignment d,
                  Assignment.cell_of_var ctx.assignment s )
              with
              | Some cd, Some cs when cd = cs ->
                finding ctx ~rule_id:id ~severity:Info ~label ~index
                  ~hint:"coalesce the copy away"
                  (Printf.sprintf
                     "%s and %s share cell %d; the copy only heats it"
                     (Var.to_string d) (Var.to_string s) cd)
                :: acc
              | _ -> acc)
            | _ -> acc)
          [] ctx.func
        |> List.rev);
  }

let foldable_constant_rule =
  let id = "foldable-constant" in
  {
    id;
    summary = "instruction that always computes the same constant";
    default_severity = Info;
    check =
      (fun ctx ->
        List.concat_map
          (fun (b : Block.t) ->
            (* Walk the block under the constant environment, exactly as
               the const-prop transfer function does. *)
            let env = ref Var.Map.empty in
            let lookup v =
              match Var.Map.find_opt v !env with
              | Some value -> value
              | None -> Const_prop.value_in ctx.consts b.Block.label v
            in
            let fs = ref [] in
            Array.iteri
              (fun index i ->
                let value = Const_prop.eval_instr i lookup in
                (match (i, value) with
                 | Instr.Const _, _ -> ()
                 | (Instr.Unop _ | Instr.Binop _), Some (Const_prop.Value.Const k)
                   ->
                   fs :=
                     finding ctx ~rule_id:id ~severity:Info ~label:b.Block.label
                       ~index ~hint:"fold it to a const (strength/cleanup)"
                       (Printf.sprintf "always computes the constant %d" k)
                     :: !fs
                 | _ -> ());
                match (Instr.def i, value) with
                | Some d, Some v -> env := Var.Map.add d v !env
                | Some d, None -> env := Var.Map.add d Const_prop.Value.Varying !env
                | None, _ -> ())
              b.Block.body;
            List.rev !fs)
          ctx.func.Func.blocks);
  }

let unreachable_rule =
  let id = "unreachable-block" in
  {
    id;
    summary = "block unreachable from the entry";
    default_severity = Warn;
    check =
      (fun ctx ->
        let reach = Func.reachable ctx.func in
        List.filter_map
          (fun (b : Block.t) ->
            if Label.Set.mem b.Block.label reach then None
            else
              Some
                (finding ctx ~rule_id:id ~severity:Warn ~label:b.Block.label
                   ~hint:"delete it (cleanup)"
                   "block is unreachable from entry"))
          ctx.func.Func.blocks);
  }

(* ------------------------------------------------------------------ *)
(* Certified thermal bounds                                             *)
(* ------------------------------------------------------------------ *)

(* The hot-spot threshold (K) shared by lint, [tdfa predict] and the
   experiments harness — 18 K above the 318 K ambient, the knee past
   which E19's ground-truth corpus labels a function hot. *)
let hot_threshold = 336.0

(* Unlike the heuristic thermal rules above, these two read certified
   [lo, hi] bounds on the fixpoint peak (the context's [bounds]), so
   their verdicts are one-sided guarantees: [certified-hot] can never be
   a false positive, [possibly-hot] can never miss a hot function. The
   bounds are with respect to the assignment in the lint context (the
   real one when provided, the placement prediction otherwise). *)
let certified_hot_rule =
  let id = "certified-hot" in
  {
    id;
    summary =
      "certified hot: the lower temperature bound clears the hot threshold";
    default_severity = Warn;
    check =
      (fun ctx ->
        let b = Lazy.force ctx.bounds in
        if b.Tdfa_absint.Absint.peak_lo_k >= hot_threshold then
          let cells =
            Tdfa_absint.Absint.certified_hot_cells ~hot_k:hot_threshold b
          in
          [
            finding ctx ~rule_id:id ~severity:Warn
              ~hint:"respill or rotate the hottest live ranges"
              (Printf.sprintf
                 "peak bound [%.2f, %.2f] K: certified >= %.0f K on %d \
                  cell(s) under any fixpoint outcome"
                 b.Tdfa_absint.Absint.peak_lo_k
                 b.Tdfa_absint.Absint.peak_hi_k hot_threshold
                 (List.length cells));
          ]
        else []);
  }

let possibly_hot_rule =
  let id = "possibly-hot" in
  {
    id;
    summary =
      "the upper temperature bound admits a hot spot; only a tighter \
       fixpoint can decide";
    default_severity = Info;
    check =
      (fun ctx ->
        let b = Lazy.force ctx.bounds in
        if
          b.Tdfa_absint.Absint.peak_lo_k < hot_threshold
          && b.Tdfa_absint.Absint.peak_hi_k >= hot_threshold
        then
          [
            finding ctx ~rule_id:id ~severity:Info
              ~hint:"rerun analyze or predict at a smaller --delta"
              (Printf.sprintf
                 "peak bound [%.2f, %.2f] K straddles the %.0f K threshold"
                 b.Tdfa_absint.Absint.peak_lo_k
                 b.Tdfa_absint.Absint.peak_hi_k hot_threshold);
          ]
        else []);
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let all =
  [
    pressure_rule;
    hot_loop_rule;
    clustered_rule;
    long_range_rule;
    spill_candidate_rule;
    back_to_back_rule;
    hot_accumulator_rule;
    dead_def_rule;
    redundant_copy_rule;
    foldable_constant_rule;
    unreachable_rule;
    certified_hot_rule;
    possibly_hot_rule;
  ]

let find id = List.find_opt (fun (r : Lint.rule) -> r.id = id) all

let thermal_ids =
  [
    "pressure-exceeds-chessboard";
    "hot-loop-access-density";
    "clustered-assignment";
    "long-live-range-no-split";
    "spill-candidate-never-spilled";
    "back-to-back-hot-access";
    "hot-accumulator";
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline gate                                                        *)
(* ------------------------------------------------------------------ *)

let gate ?(config = Lint.default_config) ?(max = Warn) ~layout () func =
  let ctx = make_ctx ~layout func in
  Lint.run ~config all ctx
  |> List.filter (fun f -> Lint.compare_severity f.severity max > 0)
  |> List.map Lint.to_check_diagnostic

let pipeline_checks ?config ?max ~layout policy =
  let lint = gate ?config ?max ~layout () in
  Tdfa_optim.Pipeline.checks
    ~verify:(fun f -> Tdfa_verify.Check.func f @ lint f)
    policy
