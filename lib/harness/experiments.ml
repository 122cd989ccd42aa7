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

(* The BENCH_*.json records: one indented JSON document per file. *)
let write_json path (v : Json.t) =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_indented v);
      output_char oc '\n')

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
        let cfg =
          Tdfa.Driver.transfer_config
            (Tdfa.Driver.default ~layout:Common.standard_layout)
            func
            (Placement.predict func Common.standard_layout)
        in
        let pre_info = Analysis.info (Analysis.fixpoint cfg func) in
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
(* E20                                                                  *)
(* ------------------------------------------------------------------ *)

type e20_event = {
  subject : string;
  edit : string;
  emode : string;  (** identity / cold as seen by Incremental *)
  blocks : int;
  t_cold_ms : float;
  t_warm_ms : float;
  e20_speedup : float;
}

type e20_class = { cls : string; count : int; cls_median : float }

type e20_result = {
  kernel_events : e20_event list;
  corpus_events : e20_event list;
  corpus_functions : int;
  kernel_median : float;
  corpus_median : float;
  e20_classes : e20_class list;
}

(* The single-pass edits the optimize→analyze loop produces, applied to
   already-allocated code. Several are no-ops on clean kernels — that is
   the point: the re-analysis event stream of a real pipeline is a mix
   of identity requests (the key matches, the cached result answers) and
   edited functions that run cold, and E20 reports each class honestly. *)
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

let e20_median = function
  | [] -> 0.0
  | l ->
    let a = List.sort Float.compare l in
    List.nth a (List.length a / 2)

let e20_time_ms ~repeats f =
  let best = ref infinity and result = ref None in
  for _ = 1 to max 1 repeats do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* One thermally-guided optimize→analyze chain: analyse the function
   once, then walk the pass list the way the compile driver does — a
   pass only fires while the latest analysis still shows heat above
   [target_k]; either way the loop issues a re-analysis request to
   confirm where it stands. Each request is measured cold vs through
   Incremental with the previous prior, results are asserted
   bitwise-identical (fingerprint over every thermal point — any
   divergence is a hard failure, no tolerance), and the new prior
   chains into the next step. Skipped passes are re-analyses of an
   unchanged function: exactly the identity traffic a pass-quiescence
   driver generates. *)
let e20_chain ~repeats ~target_k ~subject func edits =
  let layout = Common.standard_layout in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let asg = alloc.Alloc.assignment in
  let cfg f = Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) f asg in
  let last = ref (Incremental.analyze (cfg alloc.Alloc.func) alloc.Alloc.func)
  and cur = ref alloc.Alloc.func in
  List.map
    (fun (edit, pass) ->
      let peak =
        Thermal_state.peak
          (Analysis.peak_map (Analysis.info !last.Incremental.outcome))
      in
      let hot = peak >= target_k in
      let edit = if hot then edit else edit ^ "-skipped" in
      let f' = if hot then pass !cur else !cur in
      let c = cfg f' in
      let cold, t_cold_ms =
        e20_time_ms ~repeats (fun () -> Analysis.fixpoint c f')
      in
      let warm, t_warm_ms =
        e20_time_ms ~repeats (fun () ->
            Incremental.analyze ~prior:!last.Incremental.prior c f')
      in
      let fp = Tdfa_engine.Engine.fingerprint in
      if not (String.equal (fp warm.Incremental.outcome) (fp cold)) then
        failwith
          (Printf.sprintf
             "E20: incremental result diverged from cold on %s after %s"
             subject edit);
      last := warm;
      cur := f';
      {
        subject;
        edit;
        emode = Incremental.mode_name warm.Incremental.mode;
        blocks = List.length f'.Tdfa_ir.Func.blocks;
        t_cold_ms;
        t_warm_ms;
        e20_speedup = t_cold_ms /. Float.max t_warm_ms 1e-6;
      })
    edits

let e20_json r =
  let event e =
    Json.Obj
      [ ("subject", Str e.subject); ("edit", Str e.edit); ("mode", Str e.emode);
        ("total_blocks", Int e.blocks); ("t_cold_ms", Float e.t_cold_ms);
        ("t_warm_ms", Float e.t_warm_ms); ("speedup", Float e.e20_speedup) ]
  in
  let cls c =
    Json.Obj
      [ ("mode", Str c.cls); ("events", Int c.count);
        ("median_speedup", Float c.cls_median) ]
  in
  Json.Obj
    [ ("experiment", Str "e20"); ("fingerprints_equal", Bool true);
      ("kernel_median_speedup", Float r.kernel_median);
      ("corpus_median_speedup", Float r.corpus_median);
      ("corpus_functions", Int r.corpus_functions);
      ("classes", List (List.map cls r.e20_classes));
      ("kernel_events", List (List.map event r.kernel_events));
      ("corpus_events", List (List.map event r.corpus_events)) ]

(* Speedup of re-analysis through Incremental over a cold fixpoint
   across single-pass edits: the example-kernel suite (the 8 kernels
   shipped as examples/ir) plus a generated corpus. Fingerprint equality
   between the two is asserted on every event. *)
let e20 ?(quiet = false) ?(n = 120) ?(repeats = 3) ?(target_k = 337.0)
    ?(json = Some "BENCH_incremental.json") () =
  if not quiet then
    section
      "E20 - incremental re-analysis: speedup vs cold re-analysis across \
       single-pass edits";
  let example_kernels =
    [ "crc"; "fir"; "high_pressure"; "horner"; "idct_row"; "matmul";
      "scale"; "stencil" ]
  in
  let kernel_events =
    List.concat_map
      (fun name ->
        match Kernels.find name with
        | Some f -> e20_chain ~repeats ~target_k ~subject:name f e20_edits
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
           e20_chain ~repeats ~target_k
             ~subject:(Printf.sprintf "gen%03d" i)
             f corpus_edits)
         corpus)
  in
  let speedups l = List.map (fun e -> e.e20_speedup) l in
  let all_events = kernel_events @ corpus_events in
  let classes =
    List.filter_map
      (fun cls ->
        let matches =
          List.filter (fun e -> String.equal e.emode cls) all_events
        in
        if matches = [] then None
        else
          Some
            {
              cls;
              count = List.length matches;
              cls_median = e20_median (speedups matches);
            })
      [ "identity"; "cold" ]
  in
  let result =
    {
      kernel_events;
      corpus_events;
      corpus_functions = n;
      kernel_median = e20_median (speedups kernel_events);
      corpus_median = e20_median (speedups corpus_events);
      e20_classes = classes;
    }
  in
  Option.iter (fun path -> write_json path (e20_json result)) json;
  if not quiet then begin
    let table =
      Table.create
        ~headers:
          [ "kernel"; "edit"; "mode"; "blocks"; "cold(ms)"; "reuse(ms)";
            "speedup" ]
    in
    List.iter
      (fun e ->
        Table.add_row table
          [
            e.subject;
            e.edit;
            e.emode;
            string_of_int e.blocks;
            Printf.sprintf "%.3f" e.t_cold_ms;
            Printf.sprintf "%.3f" e.t_warm_ms;
            Printf.sprintf "%.1fx" e.e20_speedup;
          ])
      kernel_events;
    Table.print table;
    Printf.printf
      "\nevery incremental result bit-identical to cold (fingerprints over \
       all thermal points)\n";
    List.iter
      (fun c ->
        Printf.printf "%-9s %4d events  median %.1fx\n" c.cls c.count
          c.cls_median)
      classes;
    Printf.printf
      "median speedup: %.1fx on the example kernels (target >= 3x), %.1fx \
       on %d generated functions\n"
      result.kernel_median result.corpus_median n;
    Option.iter (Printf.printf "wrote %s\n") json
  end;
  result

(* ------------------------------------------------------------------ *)
(* E21 - flat-array core vs boxed reference                             *)
(* ------------------------------------------------------------------ *)

type e21_pair = {
  e21_subject : string;
  e21_grid : string;  (* thermal grid, e.g. "8x8 g=1" or "32x32" *)
  e21_points : int;
  t_boxed_ms : float;
  t_flat_ms : float;
  e21_speedup : float;
  bit_identical : bool;
}

type e21_result = {
  fixpoint_pairs : e21_pair list;
  steady_pairs : e21_pair list;
  fixpoint_median : float;
  steady_median : float;
  all_bit_identical : bool;
}

let e21_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* One boxed-vs-flat fixpoint pair on a [side x side] RF at granularity
   [g]: best-of-[repeats] each way, engine fingerprints asserted equal
   (the flat core's contract is bit-identity, so a mismatch is a result,
   not noise). *)
let e21_fixpoint_pair ~repeats ~side ~g name func =
  let layout =
    if side = 8 then Common.standard_layout
    else Tdfa_floorplan.Layout.make ~rows:side ~cols:side ()
  in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let cfg =
    Tdfa.Driver.transfer_config
      { (Tdfa.Driver.default ~layout) with Tdfa.Driver.granularity = g }
      alloc.Alloc.func alloc.Alloc.assignment
  in
  let boxed, t_boxed_ms =
    e20_time_ms ~repeats (fun () ->
        Analysis.fixpoint ~core:Analysis.Boxed cfg alloc.Alloc.func)
  in
  let flat, t_flat_ms =
    e20_time_ms ~repeats (fun () ->
        Analysis.fixpoint ~core:Analysis.Flat cfg alloc.Alloc.func)
  in
  let fp = Tdfa_engine.Engine.fingerprint in
  {
    e21_subject = name;
    e21_grid = Printf.sprintf "%dx%d g=%d" side side g;
    e21_points =
      Thermal_state.num_points (Analysis.peak_map (Analysis.info flat));
    t_boxed_ms;
    t_flat_ms;
    e21_speedup = t_boxed_ms /. Float.max t_flat_ms 1e-6;
    bit_identical = String.equal (fp boxed) (fp flat);
  }

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
    e20_time_ms ~repeats (fun () -> Rc_model.steady_state model ~power)
  in
  let ws = Rc_flat.make model in
  let flat, t_flat_ms =
    e20_time_ms ~repeats (fun () -> Rc_flat.solve_seq ws ~power)
  in
  {
    e21_subject = "steady";
    e21_grid = Printf.sprintf "%dx%d" side side;
    e21_points = n;
    t_boxed_ms;
    t_flat_ms;
    e21_speedup = t_boxed_ms /. Float.max t_flat_ms 1e-6;
    bit_identical = e21_bits_equal boxed flat;
  }

let e21_json r =
  let pair p =
    Json.Obj
      [ ("subject", Str p.e21_subject); ("grid", Str p.e21_grid);
        ("points", Int p.e21_points); ("t_boxed_ms", Float p.t_boxed_ms);
        ("t_flat_ms", Float p.t_flat_ms); ("speedup", Float p.e21_speedup);
        ("bit_identical", Bool p.bit_identical) ]
  in
  Json.Obj
    [ ("experiment", Str "e21"); ("fingerprints_equal", Bool r.all_bit_identical);
      ("fixpoint_median_speedup", Float r.fixpoint_median);
      ("steady_median_speedup", Float r.steady_median);
      ("fixpoint_pairs", List (List.map pair r.fixpoint_pairs));
      ("steady_pairs", List (List.map pair r.steady_pairs)) ]

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
  let all = fixpoint_pairs @ steady_pairs in
  let all_bit_identical = List.for_all (fun p -> p.bit_identical) all in
  if not all_bit_identical then
    failwith "E21: flat core diverged bitwise from the boxed reference";
  let median l = e20_median (List.map (fun p -> p.e21_speedup) l) in
  let result =
    {
      fixpoint_pairs;
      steady_pairs;
      fixpoint_median = median fixpoint_pairs;
      steady_median = median steady_pairs;
      all_bit_identical;
    }
  in
  Option.iter (fun path -> write_json path (e21_json result)) json;
  if not quiet then begin
    let table =
      Table.create
        ~headers:
          [ "subject"; "grid"; "points"; "boxed(ms)"; "flat(ms)"; "speedup" ]
    in
    List.iter
      (fun p ->
        Table.add_row table
          [
            p.e21_subject;
            p.e21_grid;
            string_of_int p.e21_points;
            Printf.sprintf "%.3f" p.t_boxed_ms;
            Printf.sprintf "%.3f" p.t_flat_ms;
            Printf.sprintf "%.1fx" p.e21_speedup;
          ])
      all;
    Table.print table;
    Printf.printf
      "\nevery pair bit-identical (fingerprints / raw IEEE-754 bits)\n";
    Printf.printf
      "median speedup: %.1fx on the fixpoint, %.1fx on the steady solve\n"
      result.fixpoint_median result.steady_median;
    Option.iter (Printf.printf "wrote %s\n") json
  end;
  result

(* ------------------------------------------------------------------ *)
(* E22                                                                  *)
(* ------------------------------------------------------------------ *)

type e22_row = {
  e22_s : float;
  e22_samples : int;
  e22_windows : int;
  e22_cells_touched : int;
  e22_peak_k : float;
  e22_vs_chessboard : float;
  e22_persistence : float;
  e22_distinct_hot : int;
}

type e22_result = {
  e22_rows : e22_row list;
  e22_chessboard_peak_k : float;
  e22_uniform_matches_ir : bool;
}

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

let e22_json r =
  let row w =
    Json.Obj
      [ ("s", Float w.e22_s); ("samples", Int w.e22_samples);
        ("windows", Int w.e22_windows);
        ("cells_touched", Int w.e22_cells_touched);
        ("peak_k", Float w.e22_peak_k);
        ("vs_chessboard", Float w.e22_vs_chessboard);
        ("persistence", Float w.e22_persistence);
        ("distinct_hot", Int w.e22_distinct_hot) ]
  in
  Json.Obj
    [ ("experiment", Str "e22");
      ("chessboard_peak_k", Float r.e22_chessboard_peak_k);
      ("uniform_matches_ir", Bool r.e22_uniform_matches_ir);
      ("rows", List (List.map row r.e22_rows)) ]

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
  let uniform_matches = ref false in
  let rows =
    List.map
      (fun s ->
        let sample = Tdfa_trace.Synth.zipf ~seed:42 ~s ~addrs:cells ~n () in
        let compiled =
          Tdfa_trace.Compile.compile
            ~policy:Tdfa_trace.Mapping.Direct ~cells sample
        in
        let stats = Tdfa_trace.Compile.stats compiled in
        let r =
          Tdfa.Driver.run cfg (Tdfa_trace.Compile.driver_input compiled)
        in
        let info = Analysis.info r.outcome in
        if s = 0.0 then begin
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
              (Tdfa.Driver.Configured
                 (config, Tdfa_trace.Compile.func compiled))
          in
          uniform_matches :=
            Tdfa_engine.Engine.fingerprint by_hand.outcome
            = Tdfa_engine.Engine.fingerprint r.outcome;
          if not !uniform_matches then
            failwith
              "E22: Trace input diverged from the hand-built Configured \
               equivalent on the uniform stream"
        end;
        let hot =
          e22_hot_cells info (Tdfa_trace.Compile.func compiled)
            ~windows:stats.Tdfa_trace.Compile.windows
        in
        let pairs = max 1 (Array.length hot - 1) in
        let agreeing = ref 0 in
        for i = 0 to Array.length hot - 2 do
          if hot.(i) = hot.(i + 1) then incr agreeing
        done;
        let distinct =
          List.length
            (List.sort_uniq compare (Array.to_list hot))
        in
        let peak_k = Thermal_state.peak (Analysis.peak_map info) in
        {
          e22_s = s;
          e22_samples = stats.Tdfa_trace.Compile.samples;
          e22_windows = stats.Tdfa_trace.Compile.windows;
          e22_cells_touched = stats.Tdfa_trace.Compile.cells_touched;
          e22_peak_k = peak_k;
          e22_vs_chessboard = peak_k /. cb_peak;
          e22_persistence = float_of_int !agreeing /. float_of_int pairs;
          e22_distinct_hot = distinct;
        })
      [ 0.0; 0.5; 1.0; 1.5 ]
  in
  let result =
    {
      e22_rows = rows;
      e22_chessboard_peak_k = cb_peak;
      e22_uniform_matches_ir = !uniform_matches;
    }
  in
  Option.iter (fun path -> write_json path (e22_json result)) json;
  if not quiet then begin
    let table =
      Table.create
        ~headers:
          [
            "zipf s"; "windows"; "touched"; "peak(K)"; "vs chessboard";
            "persistence"; "hot cells";
          ]
    in
    List.iter
      (fun w ->
        Table.add_row table
          [
            Printf.sprintf "%.1f" w.e22_s;
            string_of_int w.e22_windows;
            string_of_int w.e22_cells_touched;
            Table.fk w.e22_peak_k;
            Printf.sprintf "%.2fx" w.e22_vs_chessboard;
            Printf.sprintf "%.2f" w.e22_persistence;
            string_of_int w.e22_distinct_hot;
          ])
      rows;
    Table.print table;
    Printf.printf
      "\nchessboard peak at the 50%%-pressure breakdown: %.2f K\n" cb_peak;
    Printf.printf
      "uniform (s=0) stream fingerprint-equal to the hand-built \
       access-stream run\n";
    Option.iter (Printf.printf "wrote %s\n") json
  end;
  result

(* ------------------------------------------------------------------ *)
(* E23                                                                  *)
(* ------------------------------------------------------------------ *)

type e23_row = {
  e23_name : string;
  e23_peak_k : float;
  e23_limit_k : float;
  e23_lo_k : float;
  e23_hi_k : float;
  e23_verdict : string;
  e23_predict_ms : float;
  e23_fixpoint_ms : float;
}

type e23_result = {
  e23_corpus : int;
  e23_hot : int;
  e23_contained : bool;
  e23_certified_hot : int;
  e23_possibly_hot : int;
  e23_precision : float;
  e23_recall : float;
  e23_kernels_decided : int;
  e23_corpus_decided : int;
  e23_decided_ratio : float;
  e23_tightness_median_k : float;
  e23_cost_ratio : float;
  e23_kernel_rows : e23_row list;
}

(* The tight reference standing in for the limit: delta = 1e-6, with an
   iteration cap that the slowest corpus function stays under. *)
let e23_reference =
  { Analysis.default_settings with Analysis.delta_k = 1e-6; max_iterations = 5000 }

(* One function through [predict] and the two fixpoints it must bracket:
   the stopped run at the default delta (its peak map is [lo], timed
   best-of-[repeats] on the same grid as predict) and the delta = 1e-6
   reference. Containment of both is checked per cell — a single cell
   outside its interval is a soundness bug and raises. *)
let e23_score ~repeats ~hot_k ~layout name func =
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let f = alloc.Alloc.func and asg = alloc.Alloc.assignment in
  let tc = Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) f asg in
  let outcome, fixpoint_ms =
    e20_time_ms ~repeats (fun () -> Analysis.fixpoint tc f)
  in
  let bounds, predict_ms =
    e20_time_ms ~repeats (fun () -> Tdfa_absint.Absint.predict tc f)
  in
  let open Tdfa_absint in
  let peak_cells o =
    Thermal_state.to_cell_array (Analysis.peak_map (Analysis.info o))
  in
  let stopped = peak_cells outcome in
  let limit = peak_cells (Analysis.fixpoint ~settings:e23_reference tc f) in
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
  {
    e23_name = name;
    e23_peak_k = peak stopped;
    e23_limit_k = peak limit;
    e23_lo_k = bounds.Absint.peak_lo_k;
    e23_hi_k = bounds.Absint.peak_hi_k;
    e23_verdict = Absint.verdict_name (Absint.verdict ~hot_k bounds);
    e23_predict_ms = predict_ms;
    e23_fixpoint_ms = fixpoint_ms;
  }

let e23_json r =
  let row w =
    Json.Obj
      [ ("name", Str w.e23_name); ("peak_k", Float w.e23_peak_k);
        ("limit_k", Float w.e23_limit_k); ("lo_k", Float w.e23_lo_k);
        ("hi_k", Float w.e23_hi_k); ("verdict", Str w.e23_verdict);
        ( "cost_ratio",
          Float (w.e23_predict_ms /. Float.max w.e23_fixpoint_ms 1e-6) ) ]
  in
  Json.Obj
    [ ("experiment", Str "e23");
      ("host_cores", Int (Domain.recommended_domain_count ()));
      ("corpus_functions", Int r.e23_corpus); ("hot_functions", Int r.e23_hot);
      ("containment", Bool r.e23_contained);
      ("certified_hot", Int r.e23_certified_hot);
      ("possibly_hot", Int r.e23_possibly_hot);
      ("certified_hot_precision", Float r.e23_precision);
      ("possibly_hot_recall", Float r.e23_recall);
      ("kernels_decided", Int r.e23_kernels_decided);
      ("corpus_decided", Int r.e23_corpus_decided);
      ("decided_ratio", Float r.e23_decided_ratio);
      ("tightness_median_k", Float r.e23_tightness_median_k);
      ("same_grid_cost_ratio", Float r.e23_cost_ratio);
      ("kernels", List (List.map row r.e23_kernel_rows)) ]

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
  let kernel_rows =
    List.map
      (fun (name, f) -> e23_score ~repeats ~hot_k ~layout name f)
      Kernels.all
  in
  let all = scored @ kernel_rows in
  let count p l = List.length (List.filter p l) in
  let is_hot r = r.e23_limit_k >= hot_k in
  let certified = List.filter (fun r -> r.e23_verdict = "certified-hot") all in
  (* hi >= threshold: certified-hot or straddling — the
     zero-false-negative side of the pair *)
  let possibly = List.filter (fun r -> r.e23_hi_k >= hot_k) all in
  let decided r = r.e23_verdict <> "straddles" in
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 all in
  let result =
    {
      e23_corpus = n;
      e23_hot = count is_hot all;
      e23_contained = true (* e23_score raised otherwise *);
      e23_certified_hot = List.length certified;
      e23_possibly_hot = List.length possibly;
      e23_precision = ratio (count is_hot certified) (List.length certified);
      e23_recall = ratio (count is_hot possibly) (count is_hot all);
      e23_kernels_decided = count decided kernel_rows;
      e23_corpus_decided = count decided scored;
      e23_decided_ratio = ratio (count decided all) (List.length all);
      e23_tightness_median_k =
        e20_median (List.map (fun r -> r.e23_hi_k -. r.e23_lo_k) all);
      e23_cost_ratio =
        sum (fun r -> r.e23_predict_ms)
        /. Float.max (sum (fun r -> r.e23_fixpoint_ms)) 1e-6;
      e23_kernel_rows = kernel_rows;
    }
  in
  Option.iter (fun path -> write_json path (e23_json result)) json;
  if not quiet then begin
    Printf.printf
      "%d generated functions + %d kernels, %d hot at the delta = 1e-6 \
       reference (peak >= %.1f K, first-fit); every cell of the stopped and \
       the reference fixpoint inside its certified interval\n\n"
      n (List.length kernel_rows) result.e23_hot hot_k;
    let table =
      Table.create
        ~headers:
          [ "kernel"; "fixpoint(K)"; "limit(K)"; "lo(K)"; "hi(K)"; "verdict" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            r.e23_name;
            Table.fk r.e23_peak_k;
            Table.fk r.e23_limit_k;
            Table.fk r.e23_lo_k;
            Table.fk r.e23_hi_k;
            r.e23_verdict;
          ])
      kernel_rows;
    Table.print table;
    Printf.printf
      "\ncertified-hot: %d flagged, precision %.2f (gate: 1.00)\n"
      result.e23_certified_hot result.e23_precision;
    Printf.printf "possibly-hot:  %d flagged, recall %.2f (gate: 1.00)\n"
      result.e23_possibly_hot result.e23_recall;
    Printf.printf
      "decided: %d/%d kernels, %d/%d corpus functions (ratio %.2f)\n"
      result.e23_kernels_decided (List.length kernel_rows)
      result.e23_corpus_decided n result.e23_decided_ratio;
    Printf.printf "bracket width hi-lo: median %.4f K\n"
      result.e23_tightness_median_k;
    Printf.printf
      "predict / same-grid fixpoint time: %.2fx (%d host core(s))\n"
      result.e23_cost_ratio (Domain.recommended_domain_count ());
    Option.iter (Printf.printf "wrote %s\n") json
  end;
  result

(* ------------------------------------------------------------------ *)
(* E24                                                                  *)
(* ------------------------------------------------------------------ *)

type e24_row = {
  e24_policy : string;
  e24_peak_k : float;
  e24_gradient_k : float;
  e24_score : float;
  e24_improvement_k : float;
}

type e24_result = {
  e24_tasks : int;
  e24_cores : int;
  e24_rows : e24_row list;
  e24_all_beat_blind : bool;
}

(* Profile one function into an allocator task: first-fit register
   allocation, the real fixpoint, and the fixpoint's maps folded into
   sustained per-cell power — the same path `tdfa place` takes. *)
let e24_profile ~layout name func =
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let tc =
    Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) alloc.Alloc.func
      alloc.Alloc.assignment
  in
  let outcome = Analysis.fixpoint tc alloc.Alloc.func in
  Tdfa_alloc.Task.of_outcome ~core:layout ~name outcome

let e24_json r =
  let row w =
    Json.Obj
      [ ("policy", Str w.e24_policy); ("peak_k", Float w.e24_peak_k);
        ("gradient_k", Float w.e24_gradient_k); ("score", Float w.e24_score);
        ("improvement_k", Float w.e24_improvement_k) ]
  in
  Json.Obj
    [ ("experiment", Str "e24"); ("tasks", Int r.e24_tasks);
      ("cores", Int r.e24_cores);
      ("all_policies_beat_round_robin", Bool r.e24_all_beat_blind);
      ("policies", List (List.map row r.e24_rows)) ]

(* The allocator shoot-out: the E23 corpus plus the 16 example kernels,
   each profiled through the real fixpoint, placed on a multi-core chip
   by all three thermal-aware policies and the thermally blind
   round-robin baseline. The never-worse guarantee (every aware policy's
   peak <= round-robin's) is asserted, not just reported. *)
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
  let tasks =
    List.mapi
      (fun i f -> e24_profile ~layout (Printf.sprintf "gen%03d" i) f)
      corpus
    @ List.map (fun (name, f) -> e24_profile ~layout name f) Kernels.all
  in
  let chip = Tdfa_alloc.Chip.make ~core:layout ~rows:chip_rows ~cols:chip_cols () in
  let open Tdfa_alloc in
  let blind = Place.run chip Place.Round_robin tasks in
  let rows =
    List.map
      (fun policy ->
        let p = Place.run chip policy tasks in
        {
          e24_policy = Place.policy_name policy;
          e24_peak_k = p.Place.peak_k;
          e24_gradient_k = p.Place.gradient_k;
          e24_score = p.Place.score;
          e24_improvement_k = blind.Place.peak_k -. p.Place.peak_k;
        })
      [
        Place.Round_robin;
        Place.Greedy;
        Place.Coolest_neighbor;
        Place.Annealed { seed = 0; iters = sa_iters };
      ]
  in
  let aware = List.tl rows in
  List.iter
    (fun r ->
      if r.e24_peak_k > blind.Place.peak_k +. 1e-9 then
        failwith
          (Printf.sprintf
             "E24: never-worse guarantee broken: %s peak %.6f K above \
              round-robin %.6f K"
             r.e24_policy r.e24_peak_k blind.Place.peak_k))
    aware;
  let result =
    {
      e24_tasks = List.length tasks;
      e24_cores = Chip.num_cores chip;
      e24_rows = rows;
      e24_all_beat_blind =
        List.for_all (fun r -> r.e24_improvement_k > 0.0) aware;
    }
  in
  Option.iter (fun path -> write_json path (e24_json result)) json;
  if not quiet then begin
    Printf.printf
      "%d tasks (the E23-shaped corpus + %d kernels) on a %s chip of \
       %d-cell cores\n\n"
      result.e24_tasks (List.length Kernels.all)
      (Chip.geometry_to_string chip)
      (Tdfa_floorplan.Layout.num_cells layout);
    let table =
      Table.create
        ~headers:[ "policy"; "peak(K)"; "gradient(K)"; "score"; "vs blind(K)" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            r.e24_policy;
            Table.fk r.e24_peak_k;
            Table.fk r.e24_gradient_k;
            Printf.sprintf "%.2f" r.e24_score;
            Printf.sprintf "%+.2f" (-.r.e24_improvement_k);
          ])
      rows;
    Table.print table;
    Printf.printf
      "\nall thermal-aware policies beat round-robin: %b (never-worse \
       guarantee asserted on every row)\n"
      result.e24_all_beat_blind;
    Option.iter (Printf.printf "wrote %s\n") json
  end;
  result

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
  let (_ : e20_result) = e20 () in
  let (_ : e21_result) = e21 () in
  let (_ : e22_result) = e22 () in
  let (_ : e23_result) = e23 () in
  let (_ : e24_result) = e24 () in
  ()
