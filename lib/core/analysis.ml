open Tdfa_ir
open Tdfa_obs

type join_kind = Max | Average

type settings = { delta_k : float; max_iterations : int; join : join_kind }

let default_settings = { delta_k = 0.05; max_iterations = 200; join = Max }

type info = {
  iterations : int;
  final_delta_k : float;
  states_after : (Label.t * int, Thermal_state.t) Hashtbl.t;
  exit_states : Thermal_state.t Label.Map.t;
  unstable : (Label.t * int) list;
  initial : Thermal_state.t;
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
  let states_after : (Label.t * int, Thermal_state.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let exit_states = ref Label.Map.empty in
  let exit_state l =
    match Label.Map.find_opt l !exit_states with
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
              match Hashtbl.find_opt states_after (label, index) with
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
            Hashtbl.replace states_after (label, index) after;
            state := after)
          block.Block.body;
        let after_term = Transfer.terminator cfg label block.Block.term !state in
        exit_states := Label.Map.add label after_term !exit_states)
      order;
    (!worst, List.rev !unstable)
  in
  (pass, fun () -> (states_after, !exit_states))

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
  let states_after, exit_states = finalize () in
  let result =
    {
      iterations;
      final_delta_k;
      states_after;
      exit_states;
      unstable;
      initial = Transfer.fresh_state cfg;
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

let state_after info label index =
  match Hashtbl.find_opt info.states_after (label, index) with
  | Some s -> s
  | None -> raise Not_found

let sorted_states info =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) info.states_after []
  |> List.sort (fun ((l1, i1), _) ((l2, i2), _) ->
         match Label.compare l1 l2 with
         | 0 -> Int.compare i1 i2
         | c -> c)

let fold_states info f init =
  Hashtbl.fold (fun _ s acc -> f acc s) info.states_after init

let peak_map info =
  let peak =
    fold_states info
      (fun acc s ->
        match acc with
        | None -> Some (Thermal_state.copy s)
        | Some into ->
          Thermal_state.join_max_into ~into s;
          acc)
      None
  in
  match peak with Some m -> m | None -> Thermal_state.copy info.initial

let mean_map info =
  let count = Hashtbl.length info.states_after in
  let acc =
    fold_states info
      (fun acc s ->
        match acc with
        | None ->
          let c = Thermal_state.copy s in
          Some c
        | Some a ->
          Thermal_state.map_points a (fun p t -> t +. Thermal_state.get s p);
          Some a)
      None
  in
  match acc with
  | Some a ->
    Thermal_state.map_points a (fun _ t -> t /. float_of_int count);
    a
  | None -> Thermal_state.copy info.initial
