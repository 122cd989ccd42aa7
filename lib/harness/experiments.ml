open Tdfa_thermal
open Tdfa_exec
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_optim
open Tdfa_report
module Json = Tdfa_obs.Json

let section title =
  Printf.printf "\n==== %s ====\n\n" title

(* ------------------------------------------------------------------ *)
(* FIG1                                                                 *)
(* ------------------------------------------------------------------ *)

type fig1_result = {
  peak_first_fit : float;
  peak_random : float;
  peak_chessboard : float;
  gradient_first_fit : float;
  gradient_chessboard : float;
}

let fig1 ?(quiet = false) () =
  if not quiet then
    section "FIG1 - thermal maps per register assignment policy (8x8 RF)";
  (* ~50% register pressure, where the chessboard pattern is exactly
     realisable, as in the paper's figure. *)
  let func = Kernels.high_pressure ~live:28 ~iters:64 () in
  let policies =
    [ Policy.First_fit; Policy.Random 42; Policy.Chessboard;
      Policy.Round_robin; Policy.Thermal_spread ]
  in
  let runs =
    List.map (fun p -> Common.run_policy ~name:"high_pressure" func p) policies
  in
  let lo =
    List.fold_left
      (fun acc (r : Common.run) -> Float.min acc r.Common.metrics.Metrics.min_k)
      infinity runs
  in
  let hi =
    List.fold_left
      (fun acc (r : Common.run) -> Float.max acc r.Common.metrics.Metrics.peak_k)
      neg_infinity runs
  in
  if not quiet then begin
    (* The figure proper: maps (a), (b), (c) on a common scale. *)
    let fig_runs = List.filteri (fun i _ -> i < 3) runs in
    let maps =
      List.map
        (fun (r : Common.run) ->
          Heatmap.render_normalized ~lo ~hi Common.standard_layout r.Common.measured)
        fig_runs
    in
    let titles =
      [ "(a) first-fit"; "(b) random"; "(c) chessboard" ]
    in
    print_string (Heatmap.side_by_side ~titles maps);
    print_newline ();
    let table =
      Table.create
        ~headers:
          [ "policy"; "peak(K)"; "mean(K)"; "range(K)"; "maxgrad(K)";
            "hotspots"; "regs used" ]
    in
    List.iter
      (fun (r : Common.run) ->
        let m = r.Common.metrics in
        Table.add_row table
          [
            Policy.name r.Common.policy;
            Table.fk m.Metrics.peak_k;
            Table.fk m.Metrics.mean_k;
            Table.fk m.Metrics.range_k;
            Table.fk m.Metrics.max_neighbor_gradient_k;
            string_of_int m.Metrics.hotspot_cells;
            string_of_int
              (List.length (Assignment.cells_in_use r.Common.alloc.Alloc.assignment));
          ])
      runs;
    Table.print table
  end;
  let find p =
    match
      List.find_opt (fun (r : Common.run) -> r.Common.policy = p) runs
    with
    | Some r -> r.Common.metrics
    | None -> assert false
  in
  let ff = find Policy.First_fit in
  let rd = find (Policy.Random 42) in
  let cb = find Policy.Chessboard in
  {
    peak_first_fit = ff.Metrics.peak_k;
    peak_random = rd.Metrics.peak_k;
    peak_chessboard = cb.Metrics.peak_k;
    gradient_first_fit = ff.Metrics.max_neighbor_gradient_k;
    gradient_chessboard = cb.Metrics.max_neighbor_gradient_k;
  }

(* ------------------------------------------------------------------ *)
(* FIG2                                                                 *)
(* ------------------------------------------------------------------ *)

type fig2_row = {
  kernel : string;
  delta_k : float;
  iterations : int;
  converged : bool;
}

let fig2_kernels = [ "fib"; "matmul"; "fir"; "crc"; "stencil"; "bubble_sort" ]

let fig2 ?(quiet = false) () =
  if not quiet then
    section "FIG2 - convergence of the thermal data-flow fixpoint";
  let deltas = [ 1.0; 0.1; 0.01; 0.001 ] in
  let rows = ref [] in
  let table =
    Table.create ~headers:[ "kernel"; "delta(K)"; "iterations"; "converged" ]
  in
  List.iter
    (fun name ->
      let func =
        match Kernels.find name with Some f -> f | None -> assert false
      in
      let alloc = Alloc.allocate func Common.standard_layout ~policy:Policy.First_fit in
      List.iter
        (fun delta_k ->
          let settings =
            { Analysis.default_settings with Analysis.delta_k; max_iterations = 500 }
          in
          let outcome =
            Common.analyze_assigned ~settings ~layout:Common.standard_layout
              alloc.Alloc.func alloc.Alloc.assignment
          in
          let info = Analysis.info outcome in
          let row =
            {
              kernel = name;
              delta_k;
              iterations = info.Analysis.iterations;
              converged = Analysis.converged outcome;
            }
          in
          rows := row :: !rows;
          Table.add_row table
            [
              name;
              Printf.sprintf "%g" delta_k;
              string_of_int row.iterations;
              string_of_bool row.converged;
            ])
        deltas)
    fig2_kernels;
  (* A deliberately unstable configuration: the explicit step exceeds the
     stability bound, the analysis oscillates and hits the iteration cap -
     the non-convergence escape hatch of Fig. 2. *)
  let func = Kernels.fib () in
  let alloc = Alloc.allocate func Common.standard_layout ~policy:Policy.First_fit in
  let settings =
    { Analysis.default_settings with Analysis.delta_k = 0.05; max_iterations = 50 }
  in
  let outcome =
    Common.analyze_assigned ~analysis_dt_s:1.0e-4 ~settings
      ~layout:Common.standard_layout alloc.Alloc.func alloc.Alloc.assignment
  in
  let info = Analysis.info outcome in
  let unstable_row =
    {
      kernel = "fib (dt too large)";
      delta_k = 0.05;
      iterations = info.Analysis.iterations;
      converged = Analysis.converged outcome;
    }
  in
  rows := unstable_row :: !rows;
  Table.add_row table
    [
      unstable_row.kernel;
      "0.05";
      string_of_int unstable_row.iterations;
      string_of_bool unstable_row.converged;
    ];
  if not quiet then Table.print table;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* E3 - chessboard breakdown under pressure                             *)
(* ------------------------------------------------------------------ *)

type e3_row = {
  live : int;
  pressure_pct : float;
  peak_by_policy : (string * float) list;
}

let e3_policies =
  [ Policy.First_fit; Policy.Random 42; Policy.Chessboard; Policy.Thermal_spread ]

let e3 ?(quiet = false) () =
  if not quiet then
    section "E3 - peak temperature vs register pressure (chessboard breakdown)";
  let lives = [ 8; 16; 24; 28; 32; 40; 48; 56 ] in
  let table =
    Table.create
      ~headers:
        ("live" :: "pressure"
        :: List.map Policy.name e3_policies)
  in
  let rows =
    List.map
      (fun live ->
        let func = Kernels.high_pressure ~live ~iters:64 () in
        let runs =
          List.map
            (fun p -> (p, Common.run_policy ~name:"high_pressure" func p))
            e3_policies
        in
        let pressure =
          match runs with
          | (_, r) :: _ ->
            float_of_int r.Common.alloc.Alloc.max_pressure /. 64.0 *. 100.0
          | [] -> 0.0
        in
        let peaks =
          List.map
            (fun (p, (r : Common.run)) ->
              (Policy.name p, r.Common.metrics.Metrics.peak_k))
            runs
        in
        Table.add_row table
          (string_of_int live :: Table.pct pressure
          :: List.map (fun (_, v) -> Table.fk v) peaks);
        { live; pressure_pct = pressure; peak_by_policy = peaks })
      lives
  in
  if not quiet then Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* E4 - policy comparison across kernels                                *)
(* ------------------------------------------------------------------ *)

let e4 ?(quiet = false) () =
  if not quiet then section "E4 - peak temperature per kernel and policy";
  let policies = Policy.all in
  let table =
    Table.create
      ~headers:(("kernel" :: List.map Policy.name policies) @ [ "best" ])
  in
  let results =
    List.map
      (fun (name, func) ->
        let peaks =
          List.map
            (fun p ->
              let r = Common.run_policy ~name func p in
              (Policy.name p, r.Common.metrics.Metrics.peak_k))
            policies
        in
        let best =
          List.fold_left
            (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
            ("", infinity) peaks
        in
        Table.add_row table
          ((name :: List.map (fun (_, v) -> Table.fk v) peaks) @ [ fst best ]);
        (name, peaks))
      Kernels.all
  in
  if not quiet then Table.print table;
  results

(* ------------------------------------------------------------------ *)
(* E5 - fidelity vs granularity                                         *)
(* ------------------------------------------------------------------ *)

type e5_row = {
  kernel : string;
  granularity : int;
  mae_k : float;
  spearman : float;
  analysis_ms : float;
  iterations : int;
}

let e5 ?(quiet = false) () =
  if not quiet then
    section "E5 - analysis fidelity and cost vs thermal-state granularity";
  let table =
    Table.create
      ~headers:
        [ "kernel"; "granularity"; "points"; "mae(K)"; "spearman";
          "iterations"; "time(ms)" ]
  in
  let rows = ref [] in
  List.iter
    (fun name ->
      let func =
        match Kernels.find name with Some f -> f | None -> assert false
      in
      let run = Common.run_policy ~name func Policy.First_fit in
      List.iter
        (fun granularity ->
          let t0 = Sys.time () in
          let outcome = Common.analyze_run ~granularity run in
          let ms = (Sys.time () -. t0) *. 1000.0 in
          let info = Analysis.info outcome in
          let predicted = Common.predicted_cells info in
          let report =
            Accuracy.compare_fields ~predicted ~measured:run.Common.measured
          in
          let row =
            {
              kernel = name;
              granularity;
              mae_k = report.Accuracy.mae_k;
              spearman = report.Accuracy.spearman;
              analysis_ms = ms;
              iterations = info.Analysis.iterations;
            }
          in
          rows := row :: !rows;
          let points =
            Thermal_state.num_points
              (Analysis.peak_map info)
          in
          Table.add_row table
            [
              name;
              string_of_int granularity;
              string_of_int points;
              Table.f3 report.Accuracy.mae_k;
              Table.f3 report.Accuracy.spearman;
              string_of_int info.Analysis.iterations;
              Table.f2 ms;
            ])
        [ 1; 2; 4; 8 ])
    [ "matmul"; "stencil"; "fir" ];
  if not quiet then Table.print table;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* E6 - optimization ablation                                           *)
(* ------------------------------------------------------------------ *)

type e6_row = {
  kernel : string;
  variant : string;
  peak_k : float;
  range_k : float;
  gradient_k : float;
  back_to_back : int;
  cycles : int;
  overhead_pct : float;
}

(* Interpret an allocated function and measure its steady thermal map
   under a given assignment. *)
let measure_with_assignment func assignment =
  let outcome = Interp.run_func func in
  let measured =
    Tdfa_exec.Driver.steady_temps Common.standard_model outcome.Interp.trace
      ~cell_of_var:(fun v -> Assignment.cell_of_var assignment v)
  in
  (outcome.Interp.cycles, measured, Metrics.summarize Common.standard_layout measured)

(* Criticality ranking of a baseline run. *)
let critical_of (base : Common.run) info =
  let cfg =
    Tdfa.Driver.transfer_config
      (Tdfa.Driver.default ~layout:Common.standard_layout)
      base.Common.alloc.Alloc.func base.Common.alloc.Alloc.assignment
  in
  Criticality.critical_vars cfg info base.Common.alloc.Alloc.func
    base.Common.alloc.Alloc.assignment

let e6 ?(quiet = false) () =
  if not quiet then section "E6 - thermal-aware optimization ablation";
  let rows = ref [] in
  let row ~kernel ~variant ~base_cycles ~b2b cycles (m : Metrics.summary) =
    let r =
      {
        kernel;
        variant;
        peak_k = m.Metrics.peak_k;
        range_k = m.Metrics.range_k;
        gradient_k = m.Metrics.max_neighbor_gradient_k;
        back_to_back = b2b;
        cycles;
        overhead_pct =
          float_of_int (cycles - base_cycles)
          /. float_of_int base_cycles *. 100.0;
      }
    in
    rows := r :: !rows
  in
  let b2b_of (r : Common.run) =
    Schedule.count_back_to_back r.Common.alloc.Alloc.func
      ~cell_of_var:(Common.cell_fn r.Common.alloc)
  in
  let baseline name =
    let func = match Kernels.find name with Some f -> f | None -> assert false in
    let base = Common.run_policy ~name func Policy.First_fit in
    let info = Analysis.info (Common.analyze_run base) in
    (func, base, info)
  in

  (* --- fir: spilling, splitting, NOP insertion, combined --- *)
  let func, base, info = baseline "fir" in
  let base_cycles = base.Common.cycles in
  row ~kernel:"fir" ~variant:"baseline (first-fit)" ~base_cycles
    ~b2b:(b2b_of base) base.Common.cycles base.Common.metrics;
  let critical = critical_of base info in
  let spilled_func, _ = Spill_critical.apply func ~critical ~max_spills:2 in
  let r = Common.run_policy ~name:"fir" spilled_func Policy.First_fit in
  row ~kernel:"fir" ~variant:"spill critical (2)" ~base_cycles ~b2b:(b2b_of r)
    r.Common.cycles r.Common.metrics;
  let split_func, _ = Split_ranges.apply func ~vars:critical in
  let r = Common.run_policy ~name:"fir" split_func Policy.First_fit in
  row ~kernel:"fir" ~variant:"split ranges" ~base_cycles ~b2b:(b2b_of r)
    r.Common.cycles r.Common.metrics;
  let peak = Analysis.peak_map info in
  let mean_t = Thermal_state.mean peak in
  let hot_after label index =
    match Analysis.state_after info label index with
    | s -> Thermal_state.peak s > mean_t +. 1.0
    | exception Not_found -> false
  in
  let nop_func, _ =
    Nop_insert.apply base.Common.alloc.Alloc.func ~hot_after ~nops:1
  in
  let cycles, _, m =
    measure_with_assignment nop_func base.Common.alloc.Alloc.assignment
  in
  row ~kernel:"fir" ~variant:"nop insertion" ~base_cycles
    ~b2b:
      (Schedule.count_back_to_back nop_func
         ~cell_of_var:(Common.cell_fn base.Common.alloc))
    cycles m;
  let comb, _ = Split_ranges.apply func ~vars:critical in
  let r = Common.run_policy ~name:"fir" comb Policy.Thermal_spread in
  row ~kernel:"fir" ~variant:"split + thermal-spread" ~base_cycles
    ~b2b:(b2b_of r) r.Common.cycles r.Common.metrics;

  (* --- idct_row: thermal-aware scheduling (the ILP-rich kernel) --- *)
  let _, base, info = baseline "idct_row" in
  let base_cycles = base.Common.cycles in
  row ~kernel:"idct_row" ~variant:"baseline (first-fit)" ~base_cycles
    ~b2b:(b2b_of base) base.Common.cycles base.Common.metrics;
  let peak = Analysis.peak_map info in
  let mean_t = Thermal_state.mean peak in
  let hot_cell c =
    Thermal_state.get peak (Thermal_state.point_of_cell peak c) > mean_t +. 1.0
  in
  let sched_func, sched_report =
    Schedule.apply base.Common.alloc.Alloc.func
      ~cell_of_var:(Common.cell_fn base.Common.alloc)
      ~is_hot_cell:hot_cell
  in
  let cycles, _, m =
    measure_with_assignment sched_func base.Common.alloc.Alloc.assignment
  in
  row ~kernel:"idct_row" ~variant:"schedule (thermal)" ~base_cycles
    ~b2b:sched_report.Schedule.back_to_back_after cycles m;

  (* --- scale: register promotion (the loop-invariant-load kernel) --- *)
  let func, base, _ = baseline "scale" in
  let base_cycles = base.Common.cycles in
  row ~kernel:"scale" ~variant:"baseline (first-fit)" ~base_cycles
    ~b2b:(b2b_of base) base.Common.cycles base.Common.metrics;
  let prom_func, _ = Promote.apply func in
  let r = Common.run_policy ~name:"scale" prom_func Policy.First_fit in
  row ~kernel:"scale" ~variant:"promote" ~base_cycles ~b2b:(b2b_of r)
    r.Common.cycles r.Common.metrics;

  let rows = List.rev !rows in
  if not quiet then begin
    let table =
      Table.create
        ~headers:
          [ "kernel"; "variant"; "peak(K)"; "range(K)"; "maxgrad(K)"; "b2b";
            "cycles"; "overhead" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            r.kernel;
            r.variant;
            Table.fk r.peak_k;
            Table.fk r.range_k;
            Table.fk r.gradient_k;
            string_of_int r.back_to_back;
            string_of_int r.cycles;
            Table.pct r.overhead_pct;
          ])
      rows;
    Table.print table
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E7 - pre-RA predictive analysis vs post-assignment analysis          *)
(* ------------------------------------------------------------------ *)

type e7_row = {
  kernel : string;
  pre_spearman : float;
  post_spearman : float;
  pre_mae : float;
  post_mae : float;
}

let e7 ?(quiet = false) () =
  if not quiet then
    section "E7 - predictive (pre-RA) vs post-assignment analysis accuracy";
  let table =
    Table.create
      ~headers:
        [ "kernel"; "pre mae(K)"; "post mae(K)"; "pre spearman"; "post spearman" ]
  in
  let rows =
    List.map
      (fun name ->
        let func =
          match Kernels.find name with Some f -> f | None -> assert false
        in
        let run = Common.run_policy ~name func Policy.First_fit in
        (* Post-assignment prediction. *)
        let post_info = Analysis.info (Common.analyze_run run) in
        let post = Common.predicted_cells post_info in
        (* Pre-allocation prediction: original function, predicted
           placement. *)
        let pre_info =
          Analysis.info
            (Common.analyze_assigned func
               (Placement.predict func Common.standard_layout))
        in
        let pre = Common.predicted_cells pre_info in
        let post_rep =
          Accuracy.compare_fields ~predicted:post ~measured:run.Common.measured
        in
        let pre_rep =
          Accuracy.compare_fields ~predicted:pre ~measured:run.Common.measured
        in
        Table.add_row table
          [
            name;
            Table.f3 pre_rep.Accuracy.mae_k;
            Table.f3 post_rep.Accuracy.mae_k;
            Table.f3 pre_rep.Accuracy.spearman;
            Table.f3 post_rep.Accuracy.spearman;
          ];
        {
          kernel = name;
          pre_spearman = pre_rep.Accuracy.spearman;
          post_spearman = post_rep.Accuracy.spearman;
          pre_mae = pre_rep.Accuracy.mae_k;
          post_mae = post_rep.Accuracy.mae_k;
        })
      fig2_kernels
  in
  if not quiet then Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* E9 - VLIW functional-unit binding (paper ref [4])                    *)
(* ------------------------------------------------------------------ *)

type e9_row = {
  kernel : string;
  binding : string;
  fu_peak_k : float;
  fu_range_k : float;
  utilization : float;
}

let e9 ?(quiet = false) () =
  if not quiet then
    section "E9 - VLIW FU binding: fixed vs round-robin vs coolest (width 4)";
  let machine = Tdfa_vliw.Machine.make ~width:4 () in
  let table =
    Table.create
      ~headers:[ "kernel"; "binding"; "peak(K)"; "range(K)"; "utilization" ]
  in
  let rows =
    List.concat_map
      (fun name ->
        let func =
          match Kernels.find name with Some f -> f | None -> assert false
        in
        let scheduled =
          Tdfa_vliw.Bundler.schedule_func ~width:4 func
        in
        let util = Tdfa_vliw.Bundler.utilization ~width:4 scheduled in
        List.map
          (fun policy ->
            let _, m = Tdfa_vliw.Fu_thermal.evaluate machine func policy in
            let row =
              {
                kernel = name;
                binding = Tdfa_vliw.Binding.name policy;
                fu_peak_k = m.Metrics.peak_k;
                fu_range_k = m.Metrics.range_k;
                utilization = util;
              }
            in
            Table.add_row table
              [
                name;
                row.binding;
                Table.fk row.fu_peak_k;
                Table.fk row.fu_range_k;
                Table.pct (100.0 *. util);
              ];
            row)
          Tdfa_vliw.Binding.all)
      [ "idct_row"; "fir"; "stencil" ]
  in
  if not quiet then Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* E10 - bank packing + power gating vs spreading (§4 compromise)       *)
(* ------------------------------------------------------------------ *)

type e10_row = {
  policy : string;
  active_banks : int;
  leakage_mw : float;
  peak_k : float;
  range_k : float;
  mttf_rel_min : float;
}

let e10 ?(quiet = false) () =
  if not quiet then
    section "E10 - bank gating (pack + gate idle banks) vs thermal spreading";
  let banks = 4 in
  let func = Kernels.matmul () in
  let table =
    Table.create
      ~headers:
        [ "policy"; "active banks"; "leakage(mW)"; "peak(K)"; "range(K)";
          "mttf_min(x)" ]
  in
  let rows =
    List.map
      (fun policy ->
        let alloc = Alloc.allocate func Common.standard_layout ~policy in
        let outcome = Interp.run_func alloc.Alloc.func in
        let used = Assignment.cells_in_use alloc.Alloc.assignment in
        let bank_of c =
          Policy.bank_of_cell Common.standard_layout ~banks c
        in
        let active =
          List.sort_uniq Int.compare (List.map bank_of used)
        in
        (* Idle banks are power-gated: their cells leak nothing. *)
        let mask =
          Array.init 64 (fun c -> List.mem (bank_of c) active)
        in
        let temps =
          Tdfa_exec.Driver.steady_temps ~leak_mask:mask Common.standard_model
            outcome.Interp.trace
            ~cell_of_var:(fun v -> Assignment.cell_of_var alloc.Alloc.assignment v)
        in
        let m = Metrics.summarize Common.standard_layout temps in
        let gated_cells = Array.length (Array.of_seq (Seq.filter not (Array.to_seq mask))) in
        let leakage_w =
          Tdfa_thermal.Params.default.Tdfa_thermal.Params.leakage_w
          *. float_of_int (64 - gated_cells)
        in
        let rel = Reliability.assess Common.standard_layout temps in
        let row =
          {
            policy = Policy.name policy;
            active_banks = List.length active;
            leakage_mw = leakage_w *. 1000.0;
            peak_k = m.Metrics.peak_k;
            range_k = m.Metrics.range_k;
            mttf_rel_min = rel.Reliability.mttf_rel_min;
          }
        in
        Table.add_row table
          [
            row.policy;
            string_of_int row.active_banks;
            Table.f3 row.leakage_mw;
            Table.fk row.peak_k;
            Table.fk row.range_k;
            Table.f3 row.mttf_rel_min;
          ];
        row)
      [ Policy.Bank_pack banks; Policy.First_fit; Policy.Thermal_spread ]
  in
  if not quiet then Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* E11 - loop unrolling: cycles vs heat (§5)                            *)
(* ------------------------------------------------------------------ *)

type e11_row = {
  factor : int;
  cycles : int;
  pressure : int;
  peak_k : float;
  predicted_peak_k : float;
}

let e11 ?(quiet = false) () =
  if not quiet then
    section "E11 - loop unrolling on matmul: performance vs temperature";
  let func = Kernels.matmul () in
  let table =
    Table.create
      ~headers:[ "factor"; "cycles"; "pressure"; "peak(K)"; "predicted peak(K)" ]
  in
  let rows =
    List.map
      (fun factor ->
        let unrolled, _ = Tdfa_optim.Unroll.apply func ~factor in
        let run = Common.run_policy ~name:"matmul" unrolled Policy.First_fit in
        let info = Analysis.info (Common.analyze_run run) in
        let predicted = Thermal_state.peak (Analysis.peak_map info) in
        let row =
          {
            factor;
            cycles = run.Common.cycles;
            pressure = run.Common.alloc.Alloc.max_pressure;
            peak_k = run.Common.metrics.Metrics.peak_k;
            predicted_peak_k = predicted;
          }
        in
        Table.add_row table
          [
            string_of_int factor;
            string_of_int row.cycles;
            string_of_int row.pressure;
            Table.fk row.peak_k;
            Table.fk row.predicted_peak_k;
          ];
        row)
      [ 1; 2; 4; 8 ]
  in
  if not quiet then Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* E12 - compile-time thermal awareness vs runtime DTM (§1, ref [1])    *)
(* ------------------------------------------------------------------ *)

type e12_row = { variant : string; peak_k : float; slowdown_pct : float }

let e12 ?(quiet = false) () =
  if not quiet then
    section "E12 - runtime DTM throttling vs compile-time thermal awareness (fir)";
  let window_cycles = 1000 in
  let total_windows = 400 in
  let params = Tdfa_thermal.Params.default in
  let window_s = float_of_int window_cycles /. params.Tdfa_thermal.Params.clock_hz in
  (* Loop the kernel's access trace to reach thermal steady state. *)
  let windows_of (run : Common.run) =
    let w =
      Trace.windowed_counts (Interp.run_func run.Common.alloc.Alloc.func).Interp.trace
        ~cell_of_var:(Common.cell_fn run.Common.alloc)
        ~num_cells:64 ~window_cycles
    in
    fun i ->
      let reads, writes = w.(i mod Array.length w) in
      Tdfa_exec.Driver.power_of_counts params ~window_cycles ~reads ~writes
  in
  let trigger_k = 328.0 in
  let baseline = Common.run_policy ~name:"fir" (Kernels.fir ()) Policy.First_fit in
  let dtm_run policy_desc throttle (run : Common.run) =
    let result =
      Tdfa_thermal.Dtm.run Common.standard_model
        { Tdfa_thermal.Dtm.trigger_k; throttle_factor = throttle }
        ~power_of_window:(windows_of run) ~windows:total_windows ~window_s
    in
    {
      variant = policy_desc;
      peak_k = result.Tdfa_thermal.Dtm.peak_k;
      slowdown_pct = (result.Tdfa_thermal.Dtm.slowdown -. 1.0) *. 100.0;
    }
  in
  (* Compile-time variant: split critical ranges, spread the allocation;
     its only cost is the static cycle overhead. *)
  let info = Analysis.info (Common.analyze_run baseline) in
  let critical = critical_of baseline info in
  let split, _ = Tdfa_optim.Split_ranges.apply (Kernels.fir ()) ~vars:critical in
  let tuned = Common.run_policy ~name:"fir" split Policy.Thermal_spread in
  let tuned_overhead =
    float_of_int (tuned.Common.cycles - baseline.Common.cycles)
    /. float_of_int baseline.Common.cycles *. 100.0
  in
  (* Graded DVFS-style throttling as a second runtime baseline. *)
  let dvfs =
    let result =
      Tdfa_thermal.Dtm.run_multilevel Common.standard_model
        ~levels:[ (trigger_k -. 2.0, 0.8); (trigger_k, 0.5) ]
        ~power_of_window:(windows_of baseline) ~windows:total_windows ~window_s
    in
    {
      variant = "first-fit + DVFS (0.8/0.5)";
      peak_k = result.Tdfa_thermal.Dtm.peak_k;
      slowdown_pct = (result.Tdfa_thermal.Dtm.slowdown -. 1.0) *. 100.0;
    }
  in
  let rows =
    [
      dtm_run "first-fit, no DTM" 1.0 baseline;
      dtm_run "first-fit + DTM (throttle 0.5)" 0.5 baseline;
      dvfs;
      (let r = dtm_run "thermal-aware compile, no DTM" 1.0 tuned in
       { r with slowdown_pct = tuned_overhead });
    ]
  in
  if not quiet then begin
    let table =
      Table.create ~headers:[ "variant"; "peak(K)"; "slowdown/overhead" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [ r.variant; Table.fk r.peak_k; Table.pct r.slowdown_pct ])
      rows;
    Printf.printf "DTM trigger: %.1f K\n\n" trigger_k;
    Table.print table
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E13 - interprocedural analysis                                       *)
(* ------------------------------------------------------------------ *)

type e13_row = { variant : string; peak_k : float; mae_k : float }

let e13 ?(quiet = false) () =
  if not quiet then
    section "E13 - whole-program analysis (summaries) vs per-procedure (main)";
  let program = Kernels.multiproc_program () in
  (* One register assignment per function; the physical RF is shared. *)
  let assignments = Hashtbl.create 4 in
  List.iter
    (fun (f : Tdfa_ir.Func.t) ->
      let a =
        Alloc.allocate f Common.standard_layout ~policy:Policy.First_fit
      in
      Hashtbl.replace assignments f.Tdfa_ir.Func.name a.Alloc.assignment)
    (Tdfa_ir.Program.funcs program);
  let assignment_of (f : Tdfa_ir.Func.t) =
    Hashtbl.find assignments f.Tdfa_ir.Func.name
  in
  (* Ground truth: execute the whole program; the union assignment is
     unambiguous because the kernels' variables are prefixed. *)
  let union =
    Hashtbl.fold
      (fun _ a acc -> Assignment.bindings a @ acc)
      assignments []
    |> Assignment.of_bindings
  in
  let outcome = Interp.run program "main" in
  let measured =
    Tdfa_exec.Driver.steady_temps Common.standard_model outcome.Interp.trace
      ~cell_of_var:(fun v -> Assignment.cell_of_var union v)
  in
  (* Naive: analyse main alone; its calls contribute nothing. *)
  let main_func = Tdfa_ir.Program.main program in
  let naive_outcome =
    Common.analyze_assigned ~layout:Common.standard_layout main_func
      (assignment_of main_func)
  in
  let naive = Common.predicted_cells (Analysis.info naive_outcome) in
  (* Interprocedural: callee summaries injected at the call sites. *)
  let inter =
    Interproc.run ~layout:Common.standard_layout ~assignment_of program
  in
  let inter_cells = Thermal_state.to_cell_array inter.Interproc.program_peak in
  let row variant cells =
    let rep = Accuracy.compare_fields ~predicted:cells ~measured in
    {
      variant;
      peak_k = Array.fold_left Float.max neg_infinity cells;
      mae_k = rep.Accuracy.mae_k;
    }
  in
  let rows =
    [
      row "per-procedure (main only)" naive;
      row "interprocedural (summaries)" inter_cells;
      {
        variant = "measured (RC simulation)";
        peak_k = Array.fold_left Float.max neg_infinity measured;
        mae_k = 0.0;
      };
    ]
  in
  if not quiet then begin
    let table = Table.create ~headers:[ "variant"; "peak(K)"; "mae vs measured(K)" ] in
    List.iter
      (fun r -> Table.add_row table [ r.variant; Table.fk r.peak_k; Table.f3 r.mae_k ])
      rows;
    Table.print table
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E14 - feedback-driven compilation vs the analysis (§1)               *)
(* ------------------------------------------------------------------ *)

type e14_row = {
  variant : string;
  peak_k : float;
  thermal_simulations : int;
}

let e14 ?(quiet = false) () =
  if not quiet then
    section "E14 - feedback-driven reassignment vs analysis-guided (horner)";
  let func = Kernels.horner () in
  let simulate policy =
    Common.run_policy ~name:"horner" func policy
  in
  (* Feedback loop: each round re-assigns preferring the cells the last
     simulation measured as coolest. Every round costs one execution +
     thermal simulation of the whole program. *)
  let rec feedback rounds last_run sims acc =
    if rounds = 0 then List.rev acc
    else begin
      let next = simulate (Policy.Measured last_run.Common.measured) in
      let row =
        {
          variant = Printf.sprintf "feedback round %d" (List.length acc + 1);
          peak_k = next.Common.metrics.Metrics.peak_k;
          thermal_simulations = sims + 1;
        }
      in
      feedback (rounds - 1) next (sims + 1) (row :: acc)
    end
  in
  let baseline = simulate Policy.First_fit in
  let base_row =
    {
      variant = "first-fit (round 0)";
      peak_k = baseline.Common.metrics.Metrics.peak_k;
      thermal_simulations = 1;
    }
  in
  let feedback_rows = feedback 3 baseline 1 [] in
  (* Analysis-guided: criticality-weighted spreading, no simulation in
     the loop (the final simulation here is only for reporting). *)
  let tuned = simulate Policy.Thermal_spread in
  let tuned_row =
    {
      variant = "analysis-guided (thermal-spread)";
      peak_k = tuned.Common.metrics.Metrics.peak_k;
      thermal_simulations = 0;
    }
  in
  let rows = (base_row :: feedback_rows) @ [ tuned_row ] in
  if not quiet then begin
    let table =
      Table.create ~headers:[ "variant"; "peak(K)"; "simulations needed" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [ r.variant; Table.fk r.peak_k; string_of_int r.thermal_simulations ])
      rows;
    Table.print table
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E15 - duty-cycled execution: thermal cycling fatigue                 *)
(* ------------------------------------------------------------------ *)

type e15_row = {
  policy : string;
  transient_peak_k : float;
  half_cycles : int;
  max_swing_k : float;
  damage_index : float;
}

let e15 ?(quiet = false) () =
  if not quiet then
    section
      "E15 - thermal cycling under duty-cycled execution (crc, burst/idle)";
  let window_cycles = 1000 in
  let params = Tdfa_thermal.Params.default in
  let window_s = float_of_int window_cycles /. params.Tdfa_thermal.Params.clock_hz in
  let periods = 12 in
  let burst_windows = 60 and idle_windows = 60 in
  let rows =
    List.map
      (fun policy ->
        let run = Common.run_policy ~name:"crc" (Kernels.crc ()) policy in
        let windows =
          Trace.windowed_counts
            (Interp.run_func run.Common.alloc.Alloc.func).Interp.trace
            ~cell_of_var:(Common.cell_fn run.Common.alloc)
            ~num_cells:64 ~window_cycles
        in
        let period = burst_windows + idle_windows in
        let power_of w =
          let phase = w mod period in
          if phase < burst_windows then begin
            let reads, writes = windows.(phase mod Array.length windows) in
            Tdfa_exec.Driver.power_of_counts params ~window_cycles ~reads ~writes
          end
          else Array.make 64 0.0
        in
        let sim = Tdfa_thermal.Simulator.create Common.standard_model in
        Tdfa_thermal.Simulator.run_windows sim power_of
          ~windows:(periods * period) ~window_s;
        let peaks = Tdfa_thermal.Simulator.peak_history sim in
        let cyc = Reliability.cycling peaks in
        let transient_peak = List.fold_left Float.max neg_infinity peaks in
        {
          policy = Policy.name policy;
          transient_peak_k = transient_peak;
          half_cycles = cyc.Reliability.half_cycles;
          max_swing_k = cyc.Reliability.max_swing_k;
          damage_index = cyc.Reliability.damage_index;
        })
      [ Policy.First_fit; Policy.Random 42; Policy.Thermal_spread ]
  in
  if not quiet then begin
    let table =
      Table.create
        ~headers:
          [ "policy"; "transient peak(K)"; "half-cycles"; "max swing(K)";
            "damage index" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            r.policy;
            Table.fk r.transient_peak_k;
            string_of_int r.half_cycles;
            Table.fk r.max_swing_k;
            Table.f2 r.damage_index;
          ])
      rows;
    Table.print table
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E16 - register-file size sweep                                       *)
(* ------------------------------------------------------------------ *)

type e16_row = {
  rf : string;
  cells : int;
  policy : string;
  spilled : int;
  peak_k : float;
  range_k : float;
  cycles : int;
}

let e16 ?(quiet = false) () =
  if not quiet then
    section "E16 - register-file size sweep (horner kernel)";
  let func = Kernels.horner () in
  let shapes = [ (4, 4); (4, 8); (8, 8); (8, 16) ] in
  let rows =
    List.concat_map
      (fun (r, c) ->
        let layout = Tdfa_floorplan.Layout.make ~rows:r ~cols:c () in
        List.map
          (fun policy ->
            let run = Common.run_policy ~layout ~name:"horner" func policy in
            {
              rf = Printf.sprintf "%dx%d" r c;
              cells = r * c;
              policy = Policy.name policy;
              spilled =
                Tdfa_ir.Var.Set.cardinal run.Common.alloc.Alloc.spilled;
              peak_k = run.Common.metrics.Metrics.peak_k;
              range_k = run.Common.metrics.Metrics.range_k;
              cycles = run.Common.cycles;
            })
          [ Policy.First_fit; Policy.Thermal_spread ])
      shapes
  in
  if not quiet then begin
    let table =
      Table.create
        ~headers:
          [ "RF"; "cells"; "policy"; "spilled"; "peak(K)"; "range(K)"; "cycles" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            r.rf;
            string_of_int r.cells;
            r.policy;
            string_of_int r.spilled;
            Table.fk r.peak_k;
            Table.fk r.range_k;
            string_of_int r.cycles;
          ])
      rows;
    Table.print table
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E17 - register re-assignment (paper ref [3])                         *)
(* ------------------------------------------------------------------ *)

type e17_row = {
  kernel : string;
  variant : string;
  peak_k : float;
  range_k : float;
}

let e17 ?(quiet = false) () =
  if not quiet then
    section "E17 - post-hoc register re-assignment (ref [3]) vs policies";
  let rows =
    List.concat_map
      (fun name ->
        let func =
          match Kernels.find name with Some f -> f | None -> assert false
        in
        let base = Common.run_policy ~name func Policy.First_fit in
        let weights = Alloc.default_weights base.Common.alloc.Alloc.func in
        let reassigned =
          Reassign.improve Common.standard_layout ~weights
            base.Common.alloc.Alloc.assignment
        in
        let _, _, m_re =
          measure_with_assignment base.Common.alloc.Alloc.func reassigned
        in
        let spread = Common.run_policy ~name func Policy.Thermal_spread in
        [
          {
            kernel = name;
            variant = "first-fit";
            peak_k = base.Common.metrics.Metrics.peak_k;
            range_k = base.Common.metrics.Metrics.range_k;
          };
          {
            kernel = name;
            variant = "re-assigned (ref [3])";
            peak_k = m_re.Metrics.peak_k;
            range_k = m_re.Metrics.range_k;
          };
          {
            kernel = name;
            variant = "thermal-spread";
            peak_k = spread.Common.metrics.Metrics.peak_k;
            range_k = spread.Common.metrics.Metrics.range_k;
          };
        ])
      [ "horner"; "fir"; "crc" ]
  in
  if not quiet then begin
    let table =
      Table.create ~headers:[ "kernel"; "variant"; "peak(K)"; "range(K)" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [ r.kernel; r.variant; Table.fk r.peak_k; Table.fk r.range_k ])
      rows;
    Table.print table
  end;
  rows

type e18_scaling_row = { jobs : int; wall_ms : float; speedup : float }

type e18_cache_row = {
  repeat : int;
  cache_hits : int;
  cache_misses : int;
  hit_rate_pct : float;
}

let e18 ?(quiet = false) ?(jobs_sweep = [ 1; 2; 4 ])
    ?(repeat_sweep = [ 1; 2; 4 ]) () =
  if not quiet then
    section
      "E18 - batch engine scaling: domains vs wall time, cache hit rate \
       vs repeat factor";
  let open Tdfa_engine in
  let layout = Common.standard_layout in
  let spec = Engine.default_spec in
  let suite =
    List.map
      (fun (name, f) -> Engine.job name f)
      Kernels.all
  in
  (* Speedup vs pool size over the whole kernel suite. On a single-core
     host OCaml's stop-the-world minor collections make extra domains a
     cost, not a gain — the measured numbers say so rather than assuming
     a speedup. *)
  let base_ms = ref 0.0 in
  let scaling =
    List.map
      (fun jobs ->
        let b = Engine.run_batch ~jobs ~layout spec suite in
        if !base_ms = 0.0 then base_ms := b.Engine.wall_ms;
        {
          jobs;
          wall_ms = b.Engine.wall_ms;
          speedup = !base_ms /. Float.max b.Engine.wall_ms 1e-6;
        })
      jobs_sweep
  in
  (* Hit rate vs repeat factor: the suite submitted [repeat] times into
     one batch behind a fresh content-addressed cache. Sequential, so the
     hit count is exact: every copy after the first hits. *)
  let cache_rows =
    List.map
      (fun repeat ->
        let cache = Engine.Cache.in_memory () in
        let js =
          List.concat
            (List.init repeat (fun k ->
                 List.map
                   (fun j ->
                     {
                       j with
                       Engine.job_name =
                         Printf.sprintf "%s#%d" j.Engine.job_name k;
                     })
                   suite))
        in
        let b = Engine.run_batch ~jobs:1 ~cache ~layout spec js in
        {
          repeat;
          cache_hits = b.Engine.hits;
          cache_misses = b.Engine.misses;
          hit_rate_pct =
            100.0 *. float_of_int b.Engine.hits
            /. float_of_int (max 1 (List.length js));
        })
      repeat_sweep
  in
  if not quiet then begin
    let t1 = Table.create ~headers:[ "domains"; "wall(ms)"; "speedup" ] in
    List.iter
      (fun r ->
        Table.add_row t1
          [
            string_of_int r.jobs;
            Printf.sprintf "%.1f" r.wall_ms;
            Printf.sprintf "%.2fx" r.speedup;
          ])
      scaling;
    Table.print t1;
    Printf.printf "\n";
    let t2 =
      Table.create ~headers:[ "repeat"; "hits"; "misses"; "hit-rate" ]
    in
    List.iter
      (fun r ->
        Table.add_row t2
          [
            string_of_int r.repeat;
            string_of_int r.cache_hits;
            string_of_int r.cache_misses;
            Printf.sprintf "%.0f%%" r.hit_rate_pct;
          ])
      cache_rows;
    Table.print t2
  end;
  (scaling, cache_rows)

type e19_row = {
  rule : string;
  flagged : int;
  tp : int;
  fp : int;
  fn : int;
  precision : float;
  recall : float;
}

type e19_result = {
  corpus : int;
  hot : int;  (** functions whose fixpoint peak map concentrates heat *)
  rows : e19_row list;
}

(* The lint rules are a predictor: "this function will show a hot spot
   without ever running the thermal fixpoint". E19 scores that claim.
   Ground truth comes from the real Fig. 2 analysis of each function
   after a first-fit allocation (the policy that concentrates accesses,
   i.e. the paper's pathological baseline): a function is hot when the
   fixpoint peak map crosses [hot_k] anywhere on the RF. The predictor
   is the pre-RA lint context (predictive placement), exactly what the
   [lint] subcommand computes. *)
let e19 ?(quiet = false) ?(n = 120) ?(hot_k = Tdfa_lint.Rules.hot_threshold)
    () =
  if not quiet then
    section
      "E19 - lint as hot-spot predictor: precision/recall vs the fixpoint \
       ground truth";
  let layout = Common.standard_layout in
  let corpus =
    QCheck2.Gen.generate
      ~rand:(Random.State.make [| 0x319 |])
      ~n
      (Generator.gen_func ~max_pool:44 ~max_depth:3 ~max_length:10 ())
  in
  let thermal = Tdfa_lint.Rules.thermal_ids in
  let any_id = "any-thermal-rule" in
  let scored =
    List.map
      (fun func ->
        let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
        let info =
          Analysis.info
            (Common.analyze_assigned alloc.Alloc.func alloc.Alloc.assignment)
        in
        let pm = Analysis.peak_map info in
        let hot = Thermal_state.peak pm >= hot_k in
        let findings =
          Tdfa_lint.Lint.run Tdfa_lint.Rules.all
            (Tdfa_lint.Lint.make_ctx ~layout func)
        in
        let fired id =
          List.exists (fun f -> f.Tdfa_lint.Lint.rule_id = id) findings
        in
        let flagged = List.filter fired thermal in
        (hot, if flagged = [] then [] else any_id :: flagged))
      corpus
  in
  let hot_total = List.length (List.filter fst scored) in
  let rows =
    List.map
      (fun rule ->
        let flagged, tp, fp, fn =
          List.fold_left
            (fun (flagged, tp, fp, fn) (hot, fired) ->
              let f = List.mem rule fired in
              ( (flagged + if f then 1 else 0),
                (tp + if f && hot then 1 else 0),
                (fp + if f && not hot then 1 else 0),
                (fn + if (not f) && hot then 1 else 0) ))
            (0, 0, 0, 0) scored
        in
        let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
        {
          rule;
          flagged;
          tp;
          fp;
          fn;
          precision = ratio tp (tp + fp);
          recall = ratio tp (tp + fn);
        })
      (thermal @ [ any_id ])
  in
  let result = { corpus = n; hot = hot_total; rows } in
  if not quiet then begin
    Printf.printf
      "%d generated functions, %d hot under the fixpoint (peak >= %.1f K, \
       first-fit)\n\n"
      n hot_total hot_k;
    let table =
      Table.create
        ~headers:
          [ "rule"; "flagged"; "tp"; "fp"; "fn"; "precision"; "recall" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            r.rule;
            string_of_int r.flagged;
            string_of_int r.tp;
            string_of_int r.fp;
            string_of_int r.fn;
            Printf.sprintf "%.2f" r.precision;
            Printf.sprintf "%.2f" r.recall;
          ])
      rows;
    Table.print table;
    let best =
      List.fold_left
        (fun acc r ->
          if r.flagged > 0 && r.precision > acc then r.precision else acc)
        0.0 rows
    in
    Printf.printf "\nbest per-rule precision: %.2f %s\n" best
      (if best >= 0.7 then "(meets the 0.70 target)"
       else "(below the 0.70 target)")
  end;
  result

(* ------------------------------------------------------------------ *)
(* E20-E24: one benchmark record                                        *)
(* ------------------------------------------------------------------ *)

type row = {
  subject : string;
  metric : string;
  unit : string;
  value : float;
  n : int;
}

let row ?(n = 1) subject metric unit value = { subject; metric; unit; value; n }
let count ?n subject metric k = row ?n subject metric "count" (float_of_int k)

let flag ?n subject metric b =
  row ?n subject metric "bool" (if b then 1.0 else 0.0)

let median = function
  | [] -> 0.0
  | l ->
    let a = List.sort Float.compare l in
    List.nth a (List.length a / 2)

(* Best-of-[repeats] wall time in ms, with the result of the last call. *)
let best_of_ms ~repeats f =
  let best = ref infinity and result = ref None in
  for _ = 1 to max 1 repeats do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* The one BENCH_*.json writer and the one table printer. *)
let report ~quiet ~json experiment rows =
  let row_json r =
    Json.Obj
      [ ("subject", Str r.subject); ("metric", Str r.metric);
        ("unit", Str r.unit); ("value", Float r.value); ("n", Int r.n) ]
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Json.to_string_indented
               (Json.Obj
                  [ ("experiment", Str experiment);
                    ("host_cores", Int (Domain.recommended_domain_count ()));
                    ("rows", List (List.map row_json rows)) ]));
          output_char oc '\n'))
    json;
  if not quiet then begin
    let table =
      Table.create ~headers:[ "subject"; "metric"; "value"; "unit"; "n" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [ r.subject; r.metric; Printf.sprintf "%.6g" r.value; r.unit;
            string_of_int r.n ])
      rows;
    Table.print table;
    Option.iter (Printf.printf "wrote %s\n") json
  end;
  rows

(* ------------------------------------------------------------------ *)
(* E20                                                                  *)
(* ------------------------------------------------------------------ *)

(* The single-pass edits the optimize→analyze loop produces, applied to
   already-allocated code. Several are no-ops on clean kernels — that is
   the point: the re-analysis event stream of a real pipeline is a mix
   of identity requests (the key matches, the cached result answers) and
   edited functions that run cold, and E20 counts each class. *)
let e20_edits =
  let open Tdfa_ir in
  [
    ("cleanup", fun f -> Cleanup.run_all f);
    ("promote", fun f -> fst (Promote.apply f));
    ("strength", fun f -> fst (Strength.apply f));
    ( "split",
      fun f ->
        let vars =
          Var.Set.elements (Func.defined_vars f)
          |> List.filteri (fun i _ -> i mod 4 = 0)
        in
        fst (Split_ranges.apply f ~vars) );
    ( "schedule",
      fun f ->
        fst
          (Schedule.apply f
             ~cell_of_var:(fun v ->
               Some (Hashtbl.hash (Var.to_string v) mod 64))
             ~is_hot_cell:(fun c -> c mod 7 = 0)) );
    ( "nops",
      fun f ->
        fst
          (Nop_insert.apply f
             ~hot_after:(fun l i ->
               (Hashtbl.hash (Label.to_string l) + i) mod 6 = 0)
             ~nops:1) );
    ("unroll", fun f -> fst (Unroll.apply f ~factor:2));
  ]

(* One thermally-guided optimize→analyze chain: analyse the function
   once, then walk the pass list the way the compile driver does — a
   pass only fires while the latest analysis still shows heat above
   [target_k]; either way the loop issues a re-analysis request to
   confirm where it stands. Each request runs cold ([Assigned]) and
   from the previous prior ([Warm_start]); the two fingerprints over
   every thermal point must be equal (any divergence raises, there is
   no tolerance), and the new prior chains into the next step. Skipped
   passes are re-analyses of an unchanged function: exactly the
   identity traffic a pass-quiescence driver generates. Returns each
   event's name and reuse mode. *)
let e20_chain ~target_k ~subject func edits =
  let layout = Common.standard_layout in
  let cfg = Tdfa.Driver.default ~layout in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let assignment = alloc.Alloc.assignment in
  let warm prior func =
    Option.get
      (Tdfa.Driver.run cfg (Tdfa.Driver.Warm_start { func; assignment; prior }))
        .incremental
  in
  let last = ref (warm None alloc.Alloc.func) and cur = ref alloc.Alloc.func in
  List.map
    (fun (edit, pass) ->
      let peak =
        Thermal_state.peak
          (Analysis.peak_map (Analysis.info !last.Incremental.outcome))
      in
      let hot = peak >= target_k in
      let edit = if hot then edit else edit ^ "-skipped" in
      let f' = if hot then pass !cur else !cur in
      let cold = Tdfa.Driver.run cfg (Tdfa.Driver.Assigned (f', assignment)) in
      let inc = warm (Some !last.Incremental.prior) f' in
      let fp = Tdfa_engine.Engine.fingerprint in
      if not (String.equal (fp inc.Incremental.outcome) (fp cold.outcome)) then
        failwith
          (Printf.sprintf
             "E20: incremental result diverged from cold on %s after %s"
             subject edit);
      last := inc;
      cur := f';
      (subject ^ "/" ^ edit, inc.Incremental.mode))
    edits

(* Re-analysis through the incremental engine across single-pass edits:
   the example-kernel suite (the 8 kernels shipped as examples/ir) plus
   a generated corpus. Fingerprint equality with a cold run is asserted
   on every event; the rows count events per reuse mode. *)
let e20 ?(quiet = false) ?(n = 120) ?(target_k = 337.0)
    ?(json = Some "BENCH_incremental.json") () =
  if not quiet then
    section
      "E20 - incremental re-analysis across single-pass edits: reuse \
       modes, bit-identical to cold";
  let example_kernels =
    [ "crc"; "fir"; "high_pressure"; "horner"; "idct_row"; "matmul";
      "scale"; "stencil" ]
  in
  let kernel_events =
    List.concat_map
      (fun name ->
        match Kernels.find name with
        | Some f -> e20_chain ~target_k ~subject:name f e20_edits
        | None -> [])
      example_kernels
  in
  let corpus =
    QCheck2.Gen.generate
      ~rand:(Random.State.make [| 0x320 |])
      ~n
      (Generator.gen_func ~max_pool:24 ~max_depth:2 ())
  in
  let corpus_edits =
    List.filter
      (fun (e, _) -> List.mem e [ "split"; "schedule"; "nops" ])
      e20_edits
  in
  let corpus_events =
    List.concat
      (List.mapi
         (fun i f ->
           e20_chain ~target_k
             ~subject:(Printf.sprintf "gen%03d" i)
             f corpus_edits)
         corpus)
  in
  let all = kernel_events @ corpus_events in
  let total = List.length all in
  let modes =
    List.filter_map
      (fun mode ->
        let k = List.length (List.filter (fun (_, m) -> m = mode) all) in
        if k = 0 then None
        else
          Some (count ~n:total ("mode " ^ Incremental.mode_name mode) "events" k))
      [ Incremental.Identity; Incremental.Cold ]
  in
  report ~quiet ~json "e20"
    (List.map
       (fun (event, mode) -> flag event "identity" (mode = Incremental.Identity))
       kernel_events
    @ [
        count ~n:(List.length example_kernels) "kernels" "events"
          (List.length kernel_events);
        count ~n "corpus" "events" (List.length corpus_events);
      ]
    @ modes
    @ [ flag ~n:total "all events" "fingerprints_equal" true ])

(* ------------------------------------------------------------------ *)
(* E21 - flat-array core vs boxed reference                             *)
(* ------------------------------------------------------------------ *)

let e21_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* One pair's rows and its speedup; a pair that is not bit-identical is
   a result, not noise, and raises. *)
let e21_pair_rows ~repeats ~subject ~points ~identical t_boxed_ms t_flat_ms =
  if not identical then
    failwith
      ("E21: flat core diverged bitwise from the boxed reference on "
      ^ subject);
  let speedup = t_boxed_ms /. Float.max t_flat_ms 1e-6 in
  ( speedup,
    [ count subject "points" points;
      row ~n:repeats subject "speedup" "ratio" speedup;
      flag subject "bit_identical" true ] )

(* One boxed-vs-flat fixpoint pair on a [side x side] RF at granularity
   [g], the same prebuilt transfer configuration through the Driver with
   [core] set each way, compared by engine fingerprint. *)
let e21_fixpoint_pair ~repeats ~side ~g name func =
  let layout =
    if side = 8 then Common.standard_layout
    else Tdfa_floorplan.Layout.make ~rows:side ~cols:side ()
  in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let cfg = { (Tdfa.Driver.default ~layout) with Tdfa.Driver.granularity = g } in
  let input =
    Tdfa.Driver.Configured
      ( Tdfa.Driver.transfer_config cfg alloc.Alloc.func alloc.Alloc.assignment,
        alloc.Alloc.func )
  in
  let run core () = (Tdfa.Driver.run { cfg with core } input).outcome in
  let boxed, t_boxed_ms = best_of_ms ~repeats (run Analysis.Boxed) in
  let flat, t_flat_ms = best_of_ms ~repeats (run Analysis.Flat) in
  let fp = Tdfa_engine.Engine.fingerprint in
  e21_pair_rows ~repeats
    ~subject:(Printf.sprintf "%s %dx%d g=%d" name side side g)
    ~points:(Thermal_state.num_points (Analysis.peak_map (Analysis.info flat)))
    ~identical:(String.equal (fp boxed) (fp flat))
    t_boxed_ms t_flat_ms

(* One boxed-vs-flat steady-state pair on a [side x side] RC network:
   Rc_model.steady_state against Rc_flat.solve_seq on the same power
   field, compared bitwise. *)
let e21_steady_pair ~repeats ~side =
  let layout = Tdfa_floorplan.Layout.make ~rows:side ~cols:side () in
  let model = Rc_model.build layout Params.default in
  let n = Tdfa_floorplan.Layout.num_cells layout in
  let power =
    Array.init n (fun i -> float_of_int ((i * 37) mod 101) *. 1.0e-5)
  in
  let boxed, t_boxed_ms =
    best_of_ms ~repeats (fun () -> Rc_model.steady_state model ~power)
  in
  let ws = Rc_flat.make model in
  let flat, t_flat_ms =
    best_of_ms ~repeats (fun () -> Rc_flat.solve_seq ws ~power)
  in
  e21_pair_rows ~repeats
    ~subject:(Printf.sprintf "steady %dx%d" side side)
    ~points:n ~identical:(e21_bits_equal boxed flat) t_boxed_ms t_flat_ms

(* Cost of the flat core against the boxed reference at matched bits:
   the E5/E8 kernels at the finest granularity on the standard 8x8 RF,
   the same sweep pushed to 9x/16x (and, unless [quick], 100x) finer
   thermal grids, and the RC steady-state solve across the same grid
   ladder. Bit-identity is asserted on every pair. *)
let e21 ?(quiet = false) ?(repeats = 3) ?(quick = false)
    ?(json = Some "BENCH_core.json") () =
  if not quiet then
    section
      "E21 - flat-array thermal core vs boxed reference: cost at matched \
       bits, down to 100x finer grids";
  let kernels = [ "matmul"; "stencil"; "fir" ] in
  let fine_sides = if quick then [ 24; 32 ] else [ 24; 32; 80 ] in
  let find name =
    match Kernels.find name with Some f -> f | None -> assert false
  in
  let fixpoint_pairs =
    List.map
      (fun name -> e21_fixpoint_pair ~repeats ~side:8 ~g:1 name (find name))
      kernels
    @ List.map
        (fun side ->
          e21_fixpoint_pair ~repeats ~side ~g:1 "matmul" (find "matmul"))
        (if quick then [ 24 ] else [ 24; 32 ])
  in
  let steady_pairs =
    List.map (fun side -> e21_steady_pair ~repeats ~side) (8 :: fine_sides)
  in
  let summary subject pairs =
    row ~n:(List.length pairs) subject "median_speedup" "ratio"
      (median (List.map fst pairs))
  in
  let pairs = fixpoint_pairs @ steady_pairs in
  report ~quiet ~json "e21"
    (List.concat_map snd pairs
    @ [
        summary "fixpoint" fixpoint_pairs;
        summary "steady" steady_pairs;
        flag ~n:(List.length pairs) "all pairs" "fingerprints_equal" true;
      ])

(* ------------------------------------------------------------------ *)
(* E22                                                                  *)
(* ------------------------------------------------------------------ *)

(* Hottest cell per time segment, from the per-window analysis states:
   segment = ~1/10th of the windows, its map = pointwise max over its
   windows. Persistence is the fraction of consecutive segment pairs
   agreeing on the hottest cell. *)
let e22_hot_cells info (func : Tdfa_ir.Func.t) ~windows =
  let entry = Tdfa_ir.Func.entry_label func in
  let segments = min 10 windows in
  let seg_of w = w * segments / windows in
  let per_segment = Array.make segments [||] in
  for w = 0 to windows - 1 do
    let cells =
      Thermal_state.to_cell_array (Analysis.state_after info entry w)
    in
    let s = seg_of w in
    if Array.length per_segment.(s) = 0 then per_segment.(s) <- cells
    else per_segment.(s) <- Array.map2 Float.max per_segment.(s) cells
  done;
  Array.map
    (fun cells ->
      let hot = ref 0 in
      Array.iteri (fun i t -> if t > cells.(!hot) then hot := i) cells;
      !hot)
    per_segment

(* Skew study over the trace-ingestion frontend: synthetic Zipf streams
   of increasing exponent, direct-mapped onto the 8x8 file, against the
   chessboard policy's peak at its 50%-pressure breakdown (E3's
   reference point). *)
let e22 ?(quiet = false) ?(n = 20000) ?(json = Some "BENCH_trace.json") () =
  if not quiet then
    section
      "E22 - sampled Zipf streams through the trace frontend: skew vs \
       steady-state peak, hot-cell persistence";
  let cells = 64 in
  let layout = Tdfa_trace.Compile.layout_of_cells cells in
  let cfg = Tdfa.Driver.default ~layout in
  (* E3's breakdown point: chessboard at ~50% pressure (live = 32). *)
  let cb_run =
    Common.run_policy ~name:"high_pressure"
      (Kernels.high_pressure ~live:32 ~iters:64 ())
      Policy.Chessboard
  in
  let cb_peak =
    Thermal_state.peak
      (Analysis.peak_map (Analysis.info (Common.analyze_run cb_run)))
  in
  let stream s =
    let subject = Printf.sprintf "zipf s=%.1f" s in
    let sample = Tdfa_trace.Synth.zipf ~seed:42 ~s ~addrs:cells ~n () in
    let compiled =
      Tdfa_trace.Compile.compile ~policy:Tdfa_trace.Mapping.Direct ~cells
        sample
    in
    let stats = Tdfa_trace.Compile.stats compiled in
    let r = Tdfa.Driver.run cfg (Tdfa_trace.Compile.driver_input compiled) in
    let info = Analysis.info r.outcome in
    let uniform =
      if s <> 0.0 then []
      else begin
        (* The same events through a hand-assembled Configured input
           must reproduce the Trace path bit for bit. *)
        let accesses = Tdfa_trace.Compile.accesses compiled in
        let config =
          Transfer.make_config ~params:cfg.Tdfa.Driver.params
            ~granularity:cfg.Tdfa.Driver.granularity ~max_frequency:1.0
            ~layout
            ~block_frequency:(fun _ -> 1.0)
            ~accesses_of_instr:(fun label index _ -> accesses label index)
            ~accesses_of_term:(fun _ _ -> [])
            ()
        in
        let by_hand =
          Tdfa.Driver.run cfg
            (Tdfa.Driver.Configured (config, Tdfa_trace.Compile.func compiled))
        in
        if
          Tdfa_engine.Engine.fingerprint by_hand.outcome
          <> Tdfa_engine.Engine.fingerprint r.outcome
        then
          failwith
            "E22: Trace input diverged from the hand-built Configured \
             equivalent on the uniform stream";
        [ flag subject "matches_ir" true ]
      end
    in
    let windows = stats.Tdfa_trace.Compile.windows in
    let hot = e22_hot_cells info (Tdfa_trace.Compile.func compiled) ~windows in
    let pairs = max 1 (Array.length hot - 1) in
    let agreeing = ref 0 in
    for i = 0 to Array.length hot - 2 do
      if hot.(i) = hot.(i + 1) then incr agreeing
    done;
    let distinct = List.length (List.sort_uniq compare (Array.to_list hot)) in
    let peak_k = Thermal_state.peak (Analysis.peak_map info) in
    [
      count subject "samples" stats.Tdfa_trace.Compile.samples;
      count subject "windows" windows;
      count subject "cells_touched" stats.Tdfa_trace.Compile.cells_touched;
      row ~n:windows subject "peak_k" "K" peak_k;
      row ~n:windows subject "vs_chessboard" "ratio" (peak_k /. cb_peak);
      row ~n:pairs subject "persistence" "ratio"
        (float_of_int !agreeing /. float_of_int pairs);
      count ~n:(Array.length hot) subject "distinct_hot" distinct;
    ]
    @ uniform
  in
  report ~quiet ~json "e22"
    (row "chessboard" "peak_k" "K" cb_peak
    :: List.concat_map stream [ 0.0; 0.5; 1.0; 1.5 ])

(* ------------------------------------------------------------------ *)
(* E23                                                                  *)
(* ------------------------------------------------------------------ *)

(* The tight reference standing in for the limit: delta = 1e-6, with an
   iteration cap that the slowest corpus function stays under. *)
let e23_reference =
  { Analysis.default_settings with Analysis.delta_k = 1e-6; max_iterations = 5000 }

(* One function through [predict] and the two fixpoints it must bracket,
   all through the Driver on one prebuilt transfer configuration: the
   stopped run at the default delta (its peak map is [lo], timed
   best-of-[repeats] on the same grid as predict) and the delta = 1e-6
   reference. Containment of both is checked per cell — a single cell
   outside its interval is a soundness bug and raises. *)
let e23_score ~repeats ~hot_k ~layout name func =
  let cfg = Tdfa.Driver.default ~layout in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let f = alloc.Alloc.func in
  let input =
    Tdfa.Driver.Configured
      (Tdfa.Driver.transfer_config cfg f alloc.Alloc.assignment, f)
  in
  let run cfg () = (Tdfa.Driver.run cfg input).outcome in
  let peak_cells o =
    Thermal_state.to_cell_array (Analysis.peak_map (Analysis.info o))
  in
  let outcome, fixpoint_ms = best_of_ms ~repeats (run cfg) in
  let bounds, predict_ms =
    best_of_ms ~repeats (fun () -> Tdfa.Driver.predict cfg input)
  in
  let stopped = peak_cells outcome in
  let limit = peak_cells (run { cfg with settings = e23_reference } ()) in
  let open Tdfa_absint in
  let check what cells =
    Array.iteri
      (fun c t ->
        if t < bounds.Absint.lo_cells.(c) || t > bounds.Absint.hi_cells.(c)
        then
          failwith
            (Printf.sprintf
               "E23: soundness violation on %s cell %d: %s %.6f K outside \
                [%.6f, %.6f]"
               name c what t bounds.Absint.lo_cells.(c)
               bounds.Absint.hi_cells.(c)))
      cells
  in
  check "stopped fixpoint" stopped;
  check "reference fixpoint" limit;
  let peak = Array.fold_left Float.max neg_infinity in
  let verdict = Absint.verdict ~hot_k bounds in
  ( [
      row name "peak_k" "K" (peak stopped);
      row name "limit_k" "K" (peak limit);
      row name "lo_k" "K" bounds.Absint.peak_lo_k;
      row name "hi_k" "K" bounds.Absint.peak_hi_k;
      flag name "certified_hot" (verdict = Absint.Certified_hot);
      flag name "certified_cool" (verdict = Absint.Certified_cool);
    ],
    predict_ms,
    fixpoint_ms )

(* The certified bracket's report card over the E19 corpus and the 16
   example kernels: per-cell containment of the stopped and the
   reference fixpoint (any violation raises), the certified-hot /
   possibly-hot pair's precision and recall against the reference
   verdict at the shared lint threshold, how many subjects get a
   definite verdict, the median bracket width, and what the bracket
   costs over the fixpoint it wraps on the same grid. *)
let e23 ?(quiet = false) ?(n = 120) ?(repeats = 3)
    ?(json = Some "BENCH_absint.json") () =
  if not quiet then
    section
      "E23 - certified thermal bounds: containment, verdicts, decided \
       ratio, tightness, cost over the fixpoint";
  let layout = Common.standard_layout in
  let hot_k = Tdfa_lint.Rules.hot_threshold in
  let corpus =
    QCheck2.Gen.generate
      ~rand:(Random.State.make [| 0x319 |])
      ~n
      (Generator.gen_func ~max_pool:44 ~max_depth:3 ~max_length:10 ())
  in
  let scored =
    List.mapi
      (fun i f ->
        e23_score ~repeats ~hot_k ~layout (Printf.sprintf "gen%03d" i) f)
      corpus
  in
  let kernels =
    List.map
      (fun (name, f) -> e23_score ~repeats ~hot_k ~layout name f)
      Kernels.all
  in
  let all = scored @ kernels in
  let total = List.length all in
  let get metric (rows, _, _) =
    (List.find (fun r -> String.equal r.metric metric) rows).value
  in
  let count_of p l = List.length (List.filter p l) in
  let is_hot s = get "limit_k" s >= hot_k in
  let certified = List.filter (fun s -> get "certified_hot" s = 1.0) all in
  (* hi >= threshold: certified-hot or straddling — the
     zero-false-negative side of the pair *)
  let possibly = List.filter (fun s -> get "hi_k" s >= hot_k) all in
  let decided s = get "certified_hot" s = 1.0 || get "certified_cool" s = 1.0 in
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 all in
  let summary metric unit value = row ~n:total "all" metric unit value in
  report ~quiet ~json "e23"
    (List.concat_map (fun (rows, _, _) -> rows) kernels
    @ [
        count ~n:total "all" "hot" (count_of is_hot all);
        flag ~n:total "all" "containment" true (* e23_score raised otherwise *);
        count ~n:total "all" "certified_hot" (List.length certified);
        count ~n:total "all" "possibly_hot" (List.length possibly);
        summary "certified_hot_precision" "ratio"
          (ratio (count_of is_hot certified) (List.length certified));
        summary "possibly_hot_recall" "ratio"
          (ratio (count_of is_hot possibly) (count_of is_hot all));
        count ~n:(List.length kernels) "kernels" "decided"
          (count_of decided kernels);
        count ~n "corpus" "decided" (count_of decided scored);
        summary "decided_ratio" "ratio" (ratio (count_of decided all) total);
        summary "bracket_width_median" "K"
          (median (List.map (fun s -> get "hi_k" s -. get "lo_k" s) all));
        summary "cost_ratio" "ratio"
          (sum (fun (_, predict_ms, _) -> predict_ms)
          /. Float.max (sum (fun (_, _, fixpoint_ms) -> fixpoint_ms)) 1e-6);
      ])

(* ------------------------------------------------------------------ *)
(* E24                                                                  *)
(* ------------------------------------------------------------------ *)

(* The allocator shoot-out: the E23 corpus plus the 16 example kernels,
   each profiled through the real fixpoint (first-fit allocation, the
   fixpoint's maps folded into sustained per-cell power — the same path
   `tdfa place` takes), placed on a multi-core chip by all three
   thermal-aware policies and the thermally blind round-robin baseline.
   The never-worse guarantee (every aware policy's peak <= round-robin's)
   is asserted, not just reported. *)
let e24 ?(quiet = false) ?(n = 120) ?(chip_rows = 4) ?(chip_cols = 4)
    ?(sa_iters = 2000) ?(json = Some "BENCH_alloc.json") () =
  if not quiet then
    section
      "E24 - thermal-aware task allocation: greedy / coolest-neighbor / \
       annealing vs blind round-robin";
  let layout = Common.standard_layout in
  let corpus =
    QCheck2.Gen.generate
      ~rand:(Random.State.make [| 0x424 |])
      ~n
      (Generator.gen_func ~max_pool:44 ~max_depth:3 ~max_length:10 ())
  in
  let profile name func =
    Tdfa_alloc.Task.of_outcome ~core:layout ~name
      (Tdfa.Driver.run (Tdfa.Driver.default ~layout)
         (Tdfa.Driver.Unallocated func))
        .outcome
  in
  let tasks =
    List.mapi (fun i f -> profile (Printf.sprintf "gen%03d" i) f) corpus
    @ List.map (fun (name, f) -> profile name f) Kernels.all
  in
  let open Tdfa_alloc in
  let chip = Chip.make ~core:layout ~rows:chip_rows ~cols:chip_cols () in
  let blind = Place.run chip Place.Round_robin tasks in
  let aware =
    [ Place.Greedy; Place.Coolest_neighbor;
      Place.Annealed { seed = 0; iters = sa_iters } ]
  in
  let placed policy =
    let p = Place.run chip policy tasks in
    let name = Place.policy_name policy in
    if p.Place.peak_k > blind.Place.peak_k +. 1e-9 then
      failwith
        (Printf.sprintf
           "E24: never-worse guarantee broken: %s peak %.6f K above \
            round-robin %.6f K"
           name p.Place.peak_k blind.Place.peak_k);
    ( p.Place.peak_k < blind.Place.peak_k,
      [
        row name "peak_k" "K" p.Place.peak_k;
        row name "gradient_k" "K" p.Place.gradient_k;
        row name "score" "K" p.Place.score;
        row name "improvement_k" "K" (blind.Place.peak_k -. p.Place.peak_k);
      ] )
  in
  let placements = List.map placed (Place.Round_robin :: aware) in
  report ~quiet ~json "e24"
    (List.concat_map snd placements
    @ [
        count "chip" "tasks" (List.length tasks);
        count "chip" "cores" (Chip.num_cores chip);
        flag ~n:(List.length aware) "aware policies" "beat_round_robin"
          (List.for_all fst (List.tl placements));
      ])

let run_all () =
  let (_ : fig1_result) = fig1 () in
  let (_ : fig2_row list) = fig2 () in
  let (_ : e3_row list) = e3 () in
  let (_ : (string * (string * float) list) list) = e4 () in
  let (_ : e5_row list) = e5 () in
  let (_ : e6_row list) = e6 () in
  let (_ : e7_row list) = e7 () in
  let (_ : e9_row list) = e9 () in
  let (_ : e10_row list) = e10 () in
  let (_ : e11_row list) = e11 () in
  let (_ : e12_row list) = e12 () in
  let (_ : e13_row list) = e13 () in
  let (_ : e14_row list) = e14 () in
  let (_ : e15_row list) = e15 () in
  let (_ : e16_row list) = e16 () in
  let (_ : e17_row list) = e17 () in
  let (_ : e18_scaling_row list * e18_cache_row list) = e18 () in
  let (_ : e19_result) = e19 () in
  let (_ : row list) = e20 () in
  let (_ : row list) = e21 () in
  let (_ : row list) = e22 () in
  let (_ : row list) = e23 () in
  let (_ : row list) = e24 () in
  ()
