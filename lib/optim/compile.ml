open Tdfa_ir
open Tdfa_regalloc
open Tdfa_core

type options = {
  cleanup : bool;
  cooling_nops : int;
  policy : Policy.t;
  granularity : int;
  checks : Pipeline.checks option;
  obs : Tdfa_obs.Obs.sink;
}

let default_options =
  {
    cleanup = true;
    cooling_nops = 0;
    policy = Policy.Thermal_spread;
    granularity = 1;
    checks = None;
    obs = Tdfa_obs.Obs.null;
  }

let optimize_options = { default_options with cleanup = false; cooling_nops = 1 }

type result = {
  func : Func.t;
  assignment : Assignment.t;
  analysis : Analysis.outcome;
  critical : Var.t list;
  steps : Pipeline.step list;
}

let driver_config opts ~layout =
  {
    (Tdfa.Driver.default ~layout) with
    Tdfa.Driver.granularity = opts.granularity;
    obs = opts.obs;
  }

let analyze_with opts ~layout func assignment =
  (Tdfa.Driver.run (driver_config opts ~layout)
     (Tdfa.Driver.Assigned (func, assignment)))
    .outcome

let run ?(options = default_options) ~layout func =
  let opts = options in
  (* Under [opts.checks] every pass's output is verified and the policy
     decides whether a violating pass aborts, warns or degrades. *)
  let apply t = Pipeline.apply ~obs:opts.obs ?checks:opts.checks t in
  let t = Pipeline.start func in
  let t =
    if opts.cleanup then
      apply t ~name:"cleanup" ~detail:"fold/cse/copy/dce" Cleanup.run_all
    else t
  in
  let t =
    apply t ~name:"promote" ~detail:"loop-invariant loads" (fun f ->
        fst (Promote.apply f))
  in
  (* Scout analysis on a throwaway first-fit allocation: which variables
     feed the predicted hot spots? *)
  let scout =
    Alloc.allocate ~obs:opts.obs t.Pipeline.func layout
      ~policy:Policy.First_fit
  in
  let scout_outcome =
    analyze_with opts ~layout scout.Alloc.func scout.Alloc.assignment
  in
  let cfg =
    Tdfa.Driver.transfer_config (driver_config opts ~layout) scout.Alloc.func
      scout.Alloc.assignment
  in
  let critical =
    Criticality.critical_vars cfg
      (Analysis.info scout_outcome)
      scout.Alloc.func scout.Alloc.assignment
  in
  (* No cleanup after this point: classic copy propagation would undo
     the thermal splitting (it coalesces exactly the copies the split
     inserted) — the §4 "compromise between techniques for different
     optimization metrics" in pass-ordering form. *)
  let t =
    if critical <> [] then
      apply t ~name:"split"
        ~detail:(Printf.sprintf "%d critical vars" (List.length critical))
        (fun f ->
          (* Loop headers are exempt so the induction comparison keeps
             reading the original variable (trip-count recovery). *)
          let loops = Tdfa_dataflow.Loops.analyze f in
          let headers =
            List.fold_left
              (fun acc (l : Tdfa_dataflow.Loops.loop) ->
                Label.Set.add l.Tdfa_dataflow.Loops.header acc)
              Label.Set.empty
              (Tdfa_dataflow.Loops.loops loops)
          in
          fst (Split_ranges.apply ~skip_blocks:headers f ~vars:critical))
    else t
  in
  (* Final allocation under the thermal policy. *)
  let alloc =
    Alloc.allocate ~obs:opts.obs t.Pipeline.func layout ~policy:opts.policy
  in
  let assignment = alloc.Alloc.assignment in
  let t = { t with Pipeline.func = alloc.Alloc.func } in
  (* Thermal-aware scheduling against the real assignment. *)
  let t =
    let outcome = analyze_with opts ~layout t.Pipeline.func assignment in
    let peak = Analysis.peak_map (Analysis.info outcome) in
    let mean = Thermal_state.mean peak in
    let hot_cell c =
      Thermal_state.get peak (Thermal_state.point_of_cell peak c) > mean +. 1.0
    in
    apply t ~name:"schedule" ~detail:"separate hot accesses" (fun f ->
        fst
          (Schedule.apply f
             ~cell_of_var:(fun v -> Assignment.cell_of_var assignment v)
             ~is_hot_cell:hot_cell))
  in
  let t =
    if opts.cooling_nops > 0 then begin
      let outcome = analyze_with opts ~layout t.Pipeline.func assignment in
      let info = Analysis.info outcome in
      let peak = Analysis.peak_map info in
      let mean = Thermal_state.mean peak in
      let hot_after label index =
        match Analysis.state_after info label index with
        | s -> Thermal_state.peak s > mean +. 1.0
        | exception Not_found -> false
      in
      apply t ~name:"cooling-nops"
        ~detail:(Printf.sprintf "%d per hot instr" opts.cooling_nops)
        (fun f -> fst (Nop_insert.apply f ~hot_after ~nops:opts.cooling_nops))
    end
    else t
  in
  let func = t.Pipeline.func in
  let analysis = analyze_with opts ~layout func assignment in
  { func; assignment; analysis; critical; steps = t.Pipeline.steps }
