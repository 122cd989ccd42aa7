open Tdfa_ir
open Tdfa_regalloc
open Tdfa_core
open Tdfa_obs

type config = {
  settings : Analysis.settings;
  policy : Policy.t;
  recover : bool;
  granularity : int;
  params : Tdfa_thermal.Params.t;
  analysis_dt_s : float option;
  layout : Tdfa_floorplan.Layout.t;
  obs : Obs.sink;
  cancel : (unit -> bool) option;
  core : Analysis.core;
}

let check_granularity g =
  if g >= 1 then Ok ()
  else Error (Printf.sprintf "granularity must be at least 1 (got %d)" g)

let check_delta d =
  if Float.is_finite d && d >= 0.0 then Ok ()
  else
    Error
      (Printf.sprintf "delta must be a finite, non-negative kelvin value (got %g)"
         d)

let default ~layout =
  {
    settings = Analysis.default_settings;
    policy = Policy.First_fit;
    recover = false;
    granularity = 1;
    params = Tdfa_thermal.Params.default;
    analysis_dt_s = None;
    layout;
    obs = Obs.null;
    cancel = None;
    core = Analysis.Flat;
  }

type input =
  | Unallocated of Func.t
  | Assigned of Func.t * Assignment.t
  | Configured of Transfer.config * Func.t
  | Warm_start of {
      func : Func.t;
      assignment : Assignment.t;
      prior : Incremental.prior option;
    }
  | Trace of {
      func : Func.t;
      accesses : Label.t -> int -> Access.event list;
    }

type result = {
  alloc : Alloc.result option;
  outcome : Analysis.outcome;
  recovery : Analysis.recovery option;
  incremental : Incremental.result option;
}

let transfer_config cfg func assignment =
  Transfer.of_assignment ~params:cfg.params ~granularity:cfg.granularity
    ?analysis_dt_s:cfg.analysis_dt_s ~layout:cfg.layout func assignment

(* A trace input carries no register assignment: the access events name
   cells directly, every block runs at frequency 1 (the stream is linear
   time, not a CFG estimate) and terminators touch nothing. *)
let trace_config cfg accesses ~granularity =
  Transfer.make_config ~params:cfg.params ~granularity
    ?analysis_dt_s:cfg.analysis_dt_s ~max_frequency:1.0 ~layout:cfg.layout
    ~block_frequency:(fun _ -> 1.0)
    ~accesses_of_instr:(fun label index _ -> accesses label index)
    ~accesses_of_term:(fun _ _ -> [])
    ()

let input_mode = function
  | Unallocated _ -> "unallocated"
  | Assigned _ -> "assigned"
  | Configured _ -> "configured"
  | Warm_start _ -> "warm-start"
  | Trace _ -> "trace"

let input_func = function
  | Unallocated f
  | Assigned (f, _)
  | Configured (_, f)
  | Warm_start { func = f; _ }
  | Trace { func = f; _ } ->
    f

type prepared = {
  pre_alloc : Alloc.result option;
  func : Func.t;
  config_of : granularity:int -> Transfer.config;
}

let config_of_input cfg input =
  let assigned func assignment ~granularity =
    transfer_config { cfg with granularity } func assignment
  in
  match input with
  | Unallocated f ->
    let alloc =
      Obs.span cfg.obs "driver.allocate"
        ~args:[ ("policy", Obs.Str (Policy.name cfg.policy)) ]
        (fun () -> Alloc.allocate ~obs:cfg.obs f cfg.layout ~policy:cfg.policy)
    in
    let func = alloc.Alloc.func in
    {
      pre_alloc = Some alloc;
      func;
      config_of = assigned func alloc.Alloc.assignment;
    }
  | Assigned (func, assignment) | Warm_start { func; assignment; _ } ->
    { pre_alloc = None; func; config_of = assigned func assignment }
  | Configured (tc, func) ->
    { pre_alloc = None; func; config_of = (fun ~granularity:_ -> tc) }
  | Trace { func; accesses } ->
    { pre_alloc = None; func; config_of = trace_config cfg accesses }

let run cfg input =
  let obs = cfg.obs in
  Obs.span obs "driver.run"
    ~args:
      [
        ("mode", Obs.Str (input_mode input));
        ("policy", Obs.Str (Policy.name cfg.policy));
        ("granularity", Obs.Int cfg.granularity);
        ("recover", Obs.Bool cfg.recover);
      ]
    (fun () ->
      Obs.incr obs "driver.runs";
      let { pre_alloc = alloc; func; config_of } = config_of_input cfg input in
      let ladder () =
        Analysis.recovery_ladder ~obs ?cancel:cfg.cancel
          ~settings:cfg.settings ~core:cfg.core ~config_of
          ~granularity:cfg.granularity func
      in
      match input with
      | Warm_start { prior; _ } ->
        (* Reuse path: bit-identical to a cold Assigned run, answered
           from the prior when nothing it depends on changed. Only the
           primary rung reuses; if it diverged under [recover], the
           ladder reruns from a cold state as before. *)
        let inc =
          Incremental.analyze ~obs ?cancel:cfg.cancel ~settings:cfg.settings
            ~core:cfg.core ?prior
            (config_of ~granularity:cfg.granularity)
            func
        in
        let outcome, recovery =
          if cfg.recover && not (Analysis.converged inc.Incremental.outcome)
          then
            let r = ladder () in
            (r.Analysis.outcome, Some r)
          else (inc.Incremental.outcome, None)
        in
        { alloc; outcome; recovery; incremental = Some inc }
      | _ when cfg.recover ->
        let r = ladder () in
        {
          alloc;
          outcome = r.Analysis.outcome;
          recovery = Some r;
          incremental = None;
        }
      | _ ->
        let outcome =
          Analysis.fixpoint ~obs ?cancel:cfg.cancel ~settings:cfg.settings
            ~core:cfg.core
            (config_of ~granularity:cfg.granularity)
            func
        in
        { alloc; outcome; recovery = None; incremental = None })

let outcome r = r.outcome

let predict cfg input =
  let obs = cfg.obs in
  Obs.span obs "driver.predict"
    ~args:[ ("granularity", Obs.Int cfg.granularity) ]
    (fun () ->
      Obs.incr obs "driver.predicts";
      let { func; config_of; _ } = config_of_input cfg input in
      Tdfa_absint.Absint.predict ~obs ~delta_k:cfg.settings.Analysis.delta_k
        ~max_iterations:cfg.settings.Analysis.max_iterations
        (config_of ~granularity:cfg.granularity)
        func)

type placed = {
  profiles : Tdfa_alloc.Task.t list;
  chip : Tdfa_alloc.Chip.t;
  placement : Tdfa_alloc.Place.placement;
}

let place ?(geometry = (2, 2)) ?(policy = Tdfa_alloc.Place.Greedy) cfg inputs
    =
  let rows, cols = geometry in
  let chip =
    Tdfa_alloc.Chip.make ~params:cfg.params ~core:cfg.layout ~rows ~cols ()
  in
  let obs = cfg.obs in
  Obs.span obs "driver.place"
    ~args:
      [
        ("cores", Obs.Int (Tdfa_alloc.Chip.num_cores chip));
        ("tasks", Obs.Int (List.length inputs));
      ]
    (fun () ->
      Obs.incr obs "driver.places";
      let profiles =
        List.map
          (fun input ->
            let name = (input_func input).Func.name in
            Tdfa_alloc.Task.of_outcome ~params:cfg.params ~core:cfg.layout
              ~name (run cfg input).outcome)
          inputs
      in
      {
        profiles;
        chip;
        placement =
          Tdfa_alloc.Place.run ~obs ?cancel:cfg.cancel chip policy profiles;
      })
