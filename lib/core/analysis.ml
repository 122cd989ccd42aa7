open Tdfa_ir
open Tdfa_obs

type join_kind = Max | Average

type settings = { delta_k : float; max_iterations : int; join : join_kind }

let default_settings = { delta_k = 0.05; max_iterations = 200; join = Max }

type info = {
  iterations : int;
  final_delta_k : float;
  unstable : (Label.t * int) list;
  initial : Thermal_state.t;
  slots : Flat_core.slots;
  states : float array;
  exits : float array;
  sum_order : int array;
}

type outcome = Converged of info | Diverged of info

let info = function Converged i -> i | Diverged i -> i
let converged = function Converged _ -> true | Diverged _ -> false

let join_states kind a b =
  match kind with
  | Max -> Thermal_state.join_max a b
  | Average -> Thermal_state.join_average a b

exception Cancelled of { iterations : int }

type core = Boxed | Flat

let core_name = function Boxed -> "boxed" | Flat -> "flat"

(* The boxed reference engine: functional Thermal_state values driven
   through Transfer, one fresh state per instruction visit. Kept as the
   differential oracle for the flat kernel (test_core_flat.ml) — the
   production path is Flat_core below. *)
let boxed_engine ~settings (cfg : Transfer.config) (func : Func.t) =
  let order = Func.reverse_postorder func in
  let entry = Func.entry_label func in
  let table : (Label.t * int, Thermal_state.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let exit_map = ref Label.Map.empty in
  let exit_state l =
    match Label.Map.find_opt l !exit_map with
    | Some s -> s
    | None -> Transfer.fresh_state cfg
  in
  (* One pass of the do-while of Fig. 2; returns the largest change and
     the set of instructions that moved more than delta. *)
  let pass () =
    let worst = ref 0.0 in
    let unstable = ref [] in
    List.iter
      (fun label ->
        let block = Func.find_block func label in
        let incoming =
          if Label.equal label entry then Transfer.fresh_state cfg
          else
            match Func.predecessors func label with
            | [] -> Transfer.fresh_state cfg
            | first :: rest ->
              List.fold_left
                (fun acc p -> join_states settings.join acc (exit_state p))
                (exit_state first) rest
        in
        let state = ref incoming in
        Array.iteri
          (fun index i ->
            (* "Estimate thermal state after I". *)
            let after = Transfer.instr cfg label index i !state in
            (* "If the change in I's thermal state exceeds delta". *)
            let change =
              match Hashtbl.find_opt table (label, index) with
              | Some prev -> Thermal_state.max_delta prev after
              | None -> infinity
            in
            (* A numerically exploded state (NaN from an unstable step)
               counts as maximal change, not as convergence. *)
            let change = if Float.is_nan change then infinity else change in
            if change > settings.delta_k then
              unstable := (label, index) :: !unstable;
            let contribution =
              if change < infinity then change else settings.delta_k +. 1.0
            in
            worst := Float.max !worst contribution;
            Hashtbl.replace table (label, index) after;
            state := after)
          block.Block.body;
        let after_term = Transfer.terminator cfg label block.Block.term !state in
        exit_map := Label.Map.add label after_term !exit_map)
      order;
    (!worst, List.rev !unstable)
  in
  (* Packed once, after the last sweep, into the flat result layout. *)
  let finalize () =
    let slots = Flat_core.slots func in
    let n = Thermal_state.num_points (Transfer.fresh_state cfg) in
    let nb = Array.length slots.Flat_core.blocks in
    let states = Array.make (slots.Flat_core.first.(nb) * n) 0.0 in
    Flat_core.iter_slots slots (fun label index row ->
        Thermal_state.blit_points
          (Hashtbl.find table (label, index))
          ~dst:states ~pos:(row * n));
    let exits = Array.make (nb * n) 0.0 in
    Array.iteri
      (fun b label ->
        Thermal_state.blit_points
          (Label.Map.find label !exit_map)
          ~dst:exits ~pos:(b * n))
      slots.Flat_core.blocks;
    (slots, states, exits)
  in
  (pass, finalize)

let prepare ?(obs = Obs.null) ~settings (cfg : Transfer.config)
    (func : Func.t) =
  let join =
    match settings.join with
    | Max -> Flat_core.Join_max
    | Average -> Flat_core.Join_average
  in
  Obs.span obs "analysis.prepare"
    ~args:[ ("func", Obs.Str func.Func.name) ]
    (fun () -> Flat_core.prepare ~join ~delta_k:settings.delta_k cfg func)

(* The flat engine: the same sweep on Flat_core's preallocated buffers,
   bit-identical by construction. *)
let flat_engine ?obs ~settings cfg func =
  let t = prepare ?obs ~settings cfg func in
  let pass () = Flat_core.pass t in
  (pass, (fun () -> Flat_core.skipped t), fun () -> Flat_core.finalize t)

let sweep ?(obs = Obs.null) ?(cancel = fun () -> false) ?skipped ~settings
    (cfg : Transfer.config) (func : Func.t) pass =
  let rec iterate n =
    (* Cooperative cancellation: consulted only between sweeps, so a
       cancelled analysis never leaves a half-swept state behind. *)
    if cancel () then begin
      Obs.incr obs "analysis.cancelled";
      raise (Cancelled { iterations = n - 1 })
    end;
    let worst, unstable = pass () in
    if Obs.tracing obs then
      Obs.Fixpoint.iteration obs ~iteration:n ~max_delta_k:worst
        ~delta_k:settings.delta_k ~unstable:(List.length unstable);
    if unstable = [] then (n, worst, unstable, true)
    else if n >= settings.max_iterations then begin
      (* §4's escape hatch: nothing guarantees convergence, so the
         do-while is bounded by a "reasonable number of iterations". *)
      Obs.Fixpoint.escape_hatch obs ~iterations:n
        ~unstable:(List.length unstable);
      (n, worst, unstable, false)
    end
    else iterate (n + 1)
  in
  let (iterations, final_delta_k, _, ok) as r =
    Obs.span obs "analysis.fixpoint"
      ~args:
        [
          ("func", Obs.Str func.Func.name);
          ("delta_k", Obs.Float settings.delta_k);
          ("max_iterations", Obs.Int settings.max_iterations);
          ("join", Obs.Str (match settings.join with
                            | Max -> "max"
                            | Average -> "average"));
          ("granularity", Obs.Int cfg.Transfer.granularity);
        ]
      (fun () -> iterate 1)
  in
  (match skipped with
   | Some skipped when Obs.metering obs ->
     Obs.incr obs ~by:(skipped ()) "analysis.instr_skipped"
   | _ -> ());
  Obs.Fixpoint.verdict obs ~converged:ok ~iterations ~final_delta_k;
  r

(* The order [mean_map] sums the state rows in: the fold order of a
   [Hashtbl.create 256] keyed by (label, index) and filled in reverse
   postorder. Float addition is not associative, and that is the order
   the published means (printed in full by [place --json]) summed in. *)
let sum_order slots =
  let tbl = Hashtbl.create 256 in
  Flat_core.iter_slots slots (fun label index row ->
      Hashtbl.replace tbl (label, index) row);
  Array.of_list (List.rev (Hashtbl.fold (fun _ row acc -> row :: acc) tbl []))

let fixpoint ?obs ?cancel ?(settings = default_settings) ?(core = Flat)
    (cfg : Transfer.config) (func : Func.t) =
  let pass, skipped, finalize =
    match core with
    | Boxed ->
      let pass, finalize = boxed_engine ~settings cfg func in
      (pass, None, finalize)
    | Flat ->
      let pass, skipped, finalize = flat_engine ?obs ~settings cfg func in
      (pass, Some skipped, finalize)
  in
  let iterations, final_delta_k, unstable, ok =
    sweep ?obs ?cancel ?skipped ~settings cfg func pass
  in
  let slots, states, exits = finalize () in
  let result =
    {
      iterations;
      final_delta_k;
      unstable;
      initial = Transfer.fresh_state cfg;
      slots;
      states;
      exits;
      sum_order = sum_order slots;
    }
  in
  if ok then Converged result else Diverged result

(* ------------------------------------------------------------------ *)
(* Divergence recovery                                                  *)
(* ------------------------------------------------------------------ *)

type fallback = Primary | Average_join | Coarser of int

let fallback_name = function
  | Primary -> "primary"
  | Average_join -> "average-join"
  | Coarser g -> Printf.sprintf "granularity-%d" g

type attempt = { fallback : fallback; iterations : int; converged : bool }

type recovery = {
  outcome : outcome;
  used : fallback;
  attempts : attempt list;
}

let recovery_ladder ?(obs = Obs.null) ?cancel ?(settings = default_settings)
    ?core ~config_of ~granularity func =
  (* The paper's escape hatch (§4: nothing guarantees convergence of the
     thermal lattice) made operational: on divergence, retry with the
     smoothing Average join, then at coarser thermal granularities —
     fewer, more aggregated points damp the oscillations of the explicit
     step. Each rung trades precision for convergence. *)
  let ladder =
    Primary
    :: (if settings.join = Average then [] else [ Average_join ])
    @ [ Coarser (granularity * 2); Coarser (granularity * 4) ]
  in
  let run_rung fb =
    let settings, granularity =
      match fb with
      | Primary -> (settings, granularity)
      | Average_join -> ({ settings with join = Average }, granularity)
      | Coarser g -> ({ settings with join = Average }, g)
    in
    fixpoint ~obs ?cancel ~settings ?core (config_of ~granularity) func
  in
  let rec climb attempts = function
    | [] -> (
      (* Nothing converged: report the primary outcome (the most precise
         of the failures) with the full attempt log. *)
      match List.rev attempts with
      | [] -> assert false
      | (primary, _) :: _ as all ->
        { outcome = primary; used = Primary; attempts = List.map snd all })
    | fb :: rest ->
      let outcome = run_rung fb in
      let i = info outcome in
      let attempt =
        {
          fallback = fb;
          iterations = i.iterations;
          converged = converged outcome;
        }
      in
      Obs.Fixpoint.rung obs ~fallback:(fallback_name fb)
        ~converged:(converged outcome) ~iterations:i.iterations;
      if converged outcome then
        {
          outcome;
          used = fb;
          attempts = List.rev_map snd attempts @ [ attempt ];
        }
      else climb ((outcome, attempt) :: attempts) rest
  in
  climb [] ladder

let state_of_points info ~src ~pos =
  Thermal_state.of_points
    (Thermal_state.layout info.initial)
    ~granularity:(Thermal_state.granularity info.initial)
    ~src ~pos

let state_after info label index =
  let { Flat_core.first; block_row; _ } = info.slots in
  match Label.Map.find_opt label block_row with
  | Some b when index >= 0 && first.(b) + index < first.(b + 1) ->
    state_of_points info ~src:info.states
      ~pos:((first.(b) + index) * Thermal_state.num_points info.initial)
  | _ -> raise Not_found

let peak_map info =
  let n_points = Thermal_state.num_points info.initial in
  let ambient = Thermal_state.get info.initial 0 in
  state_of_points info ~pos:0
    ~src:(Flat_core.peak_rows ~n_points ~ambient info.states)

let mean_map info =
  let n = Thermal_state.num_points info.initial in
  let order = info.sum_order and states = info.states in
  if Array.length order = 0 then Thermal_state.copy info.initial
  else begin
    let acc = Array.sub states (order.(0) * n) n in
    for k = 1 to Array.length order - 1 do
      let base = order.(k) * n in
      for p = 0 to n - 1 do
        acc.(p) <- acc.(p) +. states.(base + p)
      done
    done;
    let count = float_of_int (Array.length order) in
    state_of_points info ~pos:0 ~src:(Array.map (fun t -> t /. count) acc)
  end
