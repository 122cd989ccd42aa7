open Tdfa_ir
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core
open Tdfa_harness

(* The driver configuration every renderer runs under: the request's
   fidelity knobs on top of [Tdfa.Driver.default]. [policy] allocates
   [Unallocated] inputs, and the [driver.run] span names it for the
   renderers that allocate first, through [allocate]. *)
let driver_config ?(layout = Common.standard_layout) ?policy ?cancel
    ?(recover = false) ~obs ~granularity ~delta () =
  let base = Tdfa.Driver.default ~layout in
  {
    base with
    Tdfa.Driver.granularity;
    settings = { Analysis.default_settings with Analysis.delta_k = delta };
    policy = Option.value policy ~default:base.policy;
    recover;
    obs;
    cancel;
  }

(* The analyze/predict prelude. Pre-RA: predictive placement on the
   original function (§4's ambitious mode). Post-RA: allocate first,
   exact registers. Returns the function to analyse, its assignment and
   the mode line of the report. *)
let allocate ~obs ~policy ~pre_ra f =
  if pre_ra then
    (f, Placement.predict f Common.standard_layout, "pre-RA (predictive)")
  else
    let alloc = Alloc.allocate ~obs f Common.standard_layout ~policy in
    ( alloc.Alloc.func,
      alloc.Alloc.assignment,
      Printf.sprintf "post-RA, policy %s" (Policy.name policy) )

(* The recovery-ladder block of the analyze and trace reports, printed
   only when the ladder climbed past its first rung. *)
let print_recovery buf (r : Tdfa.Driver.result) =
  match r.recovery with
  | Some rec_ when List.length rec_.Analysis.attempts > 1 ->
    Buffer.add_string buf "divergence-recovery ladder:\n";
    List.iter
      (fun (a : Analysis.attempt) ->
        Printf.bprintf buf "  %-16s %s after %d iterations\n"
          (Analysis.fallback_name a.Analysis.fallback)
          (if a.Analysis.converged then "converged" else "diverged")
          a.Analysis.iterations)
      rec_.Analysis.attempts;
    Printf.bprintf buf "using %s\n\n"
      (Analysis.fallback_name rec_.Analysis.used)
  | _ -> ()

(* The one source of truth for what `tdfa analyze' prints. The CLI
   prints this string to stdout; the daemon ships the same string in
   its response frame — byte-identity between the two front ends is by
   construction, and the cram suite pins the text. *)
let analyze ?(obs = Tdfa_obs.Obs.null) ?cancel ?prior ~policy ~granularity
    ~delta ~pre_ra ~recover ~incremental (f : Func.t) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.bprintf buf fmt in
  let name = f.Func.name in
  let func, assignment, mode = allocate ~obs ~policy ~pre_ra f in
  let cfg =
    driver_config ~policy ?cancel ~recover ~obs ~granularity ~delta ()
  in
  (* A serve frame with [incremental] goes through the incremental
     engine, which reuses the session's resident [prior] when nothing
     changed and keeps a new prior for the next reanalyze. *)
  let input =
    if incremental then Tdfa.Driver.Warm_start { func; assignment; prior }
    else Tdfa.Driver.Assigned (func, assignment)
  in
  let r = Tdfa.Driver.run cfg input in
  print_recovery buf r;
  let outcome = r.outcome in
  let info = Analysis.info outcome in
  pf "kernel %s, %s: analysis %s after %d iterations (last delta %.4f K)\n\n"
    name mode
    (if Analysis.converged outcome then "converged" else "DID NOT converge")
    info.Analysis.iterations info.Analysis.final_delta_k;
  let peak = Analysis.peak_map info in
  pf "predicted worst-case map (peak %.2f K):\n" (Thermal_state.peak peak);
  Buffer.add_string buf
    (Heatmap.render Common.standard_layout (Thermal_state.to_cell_array peak));
  let tcfg = Tdfa.Driver.transfer_config cfg func assignment in
  let ranked = Criticality.rank tcfg info func assignment in
  pf "\nmost critical variables:\n";
  List.iteri
    (fun i (r : Criticality.ranked) ->
      if i < 8 then
        pf "  %-12s score %10.1f  hottest point %.2f K\n"
          (Var.to_string r.Criticality.var)
          r.Criticality.score r.Criticality.hottest_point_k)
    ranked;
  (Buffer.contents buf, r)

(* The one source of truth for what `tdfa trace' prints: stream
   summary, fixpoint verdict, predicted worst-case heatmap, and the RC
   simulator's measured steady peak over the same windows. The measured
   side runs first, from the compiled per-cell counts, so its model and
   solver buffers are dead before the fixpoint takes its state buffer.
   Only the text is returned: the driver result (every per-window
   state) is read for the last time by the heatmap, and its state
   buffer goes back to the flat core for the next trace. *)
let trace ?(obs = Tdfa_obs.Obs.null) ?cancel ?window_us ~policy ~cells
    ~granularity ~delta ~recover (sample : Tdfa_trace.Sample.t) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.bprintf buf fmt in
  let compiled =
    Tdfa_trace.Compile.compile ~obs ?window_us ~policy ~cells sample
  in
  let stats = Tdfa_trace.Compile.stats compiled in
  let layout = Tdfa_trace.Compile.layout_of_cells cells in
  pf
    "trace %s: %d samples over %.3f ms, %d windows\n\
     mapping %s -> %d cells (%d touched), %d reads / %d writes\n\n"
    sample.Tdfa_trace.Sample.name stats.Tdfa_trace.Compile.samples
    (float_of_int stats.Tdfa_trace.Compile.duration_us /. 1000.0)
    stats.Tdfa_trace.Compile.windows
    (Tdfa_trace.Mapping.policy_name policy)
    cells stats.Tdfa_trace.Compile.cells_touched
    stats.Tdfa_trace.Compile.reads stats.Tdfa_trace.Compile.writes;
  (* Measured side: the same windows through the RC simulator. *)
  let reads, writes = Tdfa_trace.Compile.access_counts compiled in
  let model = Rc_model.build layout Params.default in
  let steady =
    Tdfa_exec.Driver.steady_of_counts ~obs model
      ~cycles:stats.Tdfa_trace.Compile.windows ~reads ~writes
  in
  let cfg =
    driver_config ~layout ?cancel ~recover ~obs ~granularity ~delta ()
  in
  let r = Tdfa.Driver.run cfg (Tdfa_trace.Compile.driver_input compiled) in
  print_recovery buf r;
  let outcome = r.outcome in
  let info = Analysis.info outcome in
  pf "analysis %s after %d iterations (last delta %.4f K)\n\n"
    (if Analysis.converged outcome then "converged" else "DID NOT converge")
    info.Analysis.iterations info.Analysis.final_delta_k;
  let peak = Analysis.peak_map info in
  pf "predicted worst-case map (peak %.2f K):\n" (Thermal_state.peak peak);
  Buffer.add_string buf
    (Heatmap.render layout (Thermal_state.to_cell_array peak));
  Flat_core.recycle info.Analysis.states;
  let measured_peak = Array.fold_left Float.max neg_infinity steady in
  pf "\nmeasured steady peak (RC simulator): %.2f K\n" measured_peak;
  Buffer.contents buf

(* The one source of truth for what `tdfa predict' prints: certified
   [lo, hi] peak bounds around the fixpoint (Tdfa_absint), the verdict
   against the shared hot threshold, the upper-bound map and the
   hottest cells. Everything printed is deterministic (counts, not
   times), so the daemon can ship the same bytes. *)
let predict ?(obs = Tdfa_obs.Obs.null) ~policy ~granularity ~delta ~pre_ra
    (f : Func.t) =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.bprintf buf fmt in
  let name = f.Func.name in
  let func, assignment, mode = allocate ~obs ~policy ~pre_ra f in
  let cfg = driver_config ~policy ~obs ~granularity ~delta () in
  let b = Tdfa.Driver.predict cfg (Tdfa.Driver.Assigned (func, assignment)) in
  let open Tdfa_absint in
  let hot_k = Tdfa_lint.Rules.hot_threshold in
  pf "kernel %s, %s: certified thermal bounds (fixpoint + certificate)\n"
    name mode;
  pf "peak bound [%.2f, %.2f] K vs threshold %.0f K: %s\n"
    b.Absint.peak_lo_k b.Absint.peak_hi_k hot_k
    (Absint.verdict_name (Absint.verdict ~hot_k b));
  let st = b.Absint.stats in
  pf "lower bound after %d fixpoint iterations; " st.Absint.iterations;
  if Float.is_finite b.Absint.peak_hi_k then
    pf "upper bound certified by sweep %d (lift alpha %.2f, beta %.4f K)\n\n"
      st.Absint.certify_sweeps st.Absint.lift_alpha b.Absint.margin_k
  else
    pf "no upper bound: %d certificate sweep(s) failed\n\n"
      st.Absint.certify_sweeps;
  pf "upper-bound map (peak %.2f K):\n" b.Absint.peak_hi_k;
  Buffer.add_string buf (Heatmap.render Common.standard_layout b.Absint.hi_cells);
  pf "\nhottest cells by upper bound:\n";
  let ranked =
    List.init (Array.length b.Absint.hi_cells) (fun c -> c)
    |> List.sort (fun c1 c2 ->
        match compare b.Absint.hi_cells.(c2) b.Absint.hi_cells.(c1) with
        | 0 -> compare c1 c2
        | n -> n)
  in
  List.iteri
    (fun i c ->
      if i < 8 then
        pf "  cell %2d  [%.2f, %.2f] K  (width %.2f)\n" c
          b.Absint.lo_cells.(c) b.Absint.hi_cells.(c)
          (b.Absint.hi_cells.(c) -. b.Absint.lo_cells.(c)))
    ranked;
  (Buffer.contents buf, b)

(* The one source of truth for what `tdfa place' prints: the jobs'
   thermal profiles, the chosen allocation over the chip's cores, the
   steady core-temperature map, and the round-robin baseline it beat
   (the one [Place.run] already scored for its guard). Everything
   printed is deterministic (seeded annealing, fixed operation order),
   so the daemon ships the same bytes. *)
let place ?(obs = Tdfa_obs.Obs.null) ?cancel ~policy ~granularity ~delta
    ~geometry ~place_policy (funcs : Func.t list) =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.bprintf buf fmt in
  let cfg = driver_config ~policy ?cancel ~obs ~granularity ~delta () in
  let inputs = List.map (fun f -> Tdfa.Driver.Unallocated f) funcs in
  let placed = Tdfa.Driver.place ~geometry ~policy:place_policy cfg inputs in
  let open Tdfa_alloc in
  let chip = placed.chip in
  let p = placed.placement in
  pf "placing %d task(s) on a %s chip of %dx%d-cell cores, policy %s\n\n"
    (List.length placed.profiles)
    (Chip.geometry_to_string chip)
    (Chip.core chip).Tdfa_floorplan.Layout.rows
    (Chip.core chip).Tdfa_floorplan.Layout.cols
    (Place.policy_name p.Place.policy);
  pf "task profiles (hottest first):\n";
  let by_power =
    List.sort
      (fun (a : Task.t) (b : Task.t) ->
        match Float.compare (Task.sustained_w b) (Task.sustained_w a) with
        | 0 -> Task.compare a b
        | n -> n)
      placed.profiles
  in
  List.iter
    (fun (t : Task.t) ->
      let core =
        match List.assoc_opt t.Task.name p.Place.assignment with
        | Some c -> c
        | None -> -1
      in
      pf "  %-12s %8.3f mW sustained  +%6.2f K transient  -> core %d\n"
        t.Task.name
        (Task.sustained_w t *. 1000.0)
        (Task.transient_rise_k t) core)
    by_power;
  pf "\nsteady core-temperature map:\n";
  Buffer.add_string buf (Heatmap.render (Chip.grid chip) p.Place.core_temps_k);
  pf "\nper-core:\n";
  Array.iteri
    (fun c temp_k ->
      let names =
        List.filter_map
          (fun (n, c') -> if c' = c then Some n else None)
          p.Place.assignment
      in
      pf "  core %d  steady %.2f K  local peak %.2f K  %s\n" c temp_k
        p.Place.local_peak_k.(c)
        (if names = [] then "(idle)" else String.concat "," names))
    p.Place.core_temps_k;
  pf "\nplacement peak %.2f K, gradient %.2f K, score %.2f\n" p.Place.peak_k
    p.Place.gradient_k p.Place.score;
  pf "round-robin baseline peak %.2f K -> improvement %.2f K\n"
    p.Place.round_robin_peak_k
    (p.Place.round_robin_peak_k -. p.Place.peak_k);
  (Buffer.contents buf, placed)

(* The one source of truth for a `tdfa lint' text report of one input:
   the CLI prints it per input, the daemon ships it in the response. *)
let lint_report ~display findings =
  if findings = [] then Printf.sprintf "lint %s: clean\n" display
  else
    Printf.sprintf "lint %s:\n%s" display
      (Tdfa_lint.Render.to_string findings)

let allocate_for ?(obs = Tdfa_obs.Obs.null) ~post_ra ~policy f =
  if post_ra then begin
    let alloc = Alloc.allocate ~obs f Common.standard_layout ~policy in
    (alloc.Alloc.func, Some alloc.Alloc.assignment)
  end
  else (f, None)

let lint ?(obs = Tdfa_obs.Obs.null)
    ?(config = Tdfa_lint.Lint.default_config) ~post_ra ~policy (f : Func.t) =
  let known = Tdfa_lint.Rules.all in
  let func, assignment = allocate_for ~obs ~post_ra ~policy f in
  let ctx =
    Tdfa_lint.Lint.make_ctx ~obs ?assignment ~layout:Common.standard_layout
      func
  in
  let findings = Tdfa_lint.Lint.run ~obs ~config known ctx in
  (lint_report ~display:func.Func.name findings, findings)
