(* Benchmark harness: regenerates every figure of the paper (FIG1, FIG2)
   and the quantitative experiments its prose asserts (E3-E7, see
   DESIGN.md), then times the analysis itself with Bechamel (E8: the
   cost-vs-granularity and cost-vs-size trade-off of Section 3). *)

open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_harness

(* ------------------------------------------------------------------ *)
(* E8: Bechamel micro-benchmarks of the analysis                        *)
(* ------------------------------------------------------------------ *)

let analysis_bench ~granularity func =
  let alloc =
    Alloc.allocate func Common.standard_layout ~policy:Policy.First_fit
  in
  fun () ->
    ignore
      (Common.analyze_assigned ~granularity ~layout:Common.standard_layout
         alloc.Alloc.func alloc.Alloc.assignment)

(* Observability overhead: the same facade run with tracing disabled
   (Obs.null — must be indistinguishable from the plain analysis, the
   <2% budget of DESIGN.md §9) and with a metrics registry attached. *)
let obs_bench sink func =
  let alloc =
    Alloc.allocate func Common.standard_layout ~policy:Policy.First_fit
  in
  let cfg =
    {
      (Tdfa.Driver.default ~layout:Common.standard_layout) with
      Tdfa.Driver.obs = sink;
    }
  in
  fun () ->
    ignore
      (Tdfa.Driver.run cfg
         (Tdfa.Driver.Assigned (alloc.Alloc.func, alloc.Alloc.assignment)))

let bechamel_tests () =
  let open Bechamel in
  let obs_tests =
    [
      Test.make ~name:"analysis matmul obs=null"
        (Staged.stage (obs_bench Tdfa_obs.Obs.null (Kernels.matmul ())));
      Test.make ~name:"analysis matmul obs=metrics"
        (Staged.stage
           (obs_bench (Tdfa_obs.Obs.metrics_only ()) (Kernels.matmul ())));
    ]
  in
  let granularity_tests =
    List.map
      (fun g ->
        Test.make
          ~name:(Printf.sprintf "analysis matmul g=%d" g)
          (Staged.stage (analysis_bench ~granularity:g (Kernels.matmul ()))))
      [ 1; 2; 4; 8 ]
  in
  let size_tests =
    List.map
      (fun live ->
        let func = Kernels.high_pressure ~live () in
        Test.make
          ~name:
            (Printf.sprintf "analysis size=%d instrs"
               (Tdfa_ir.Func.instr_count func))
          (Staged.stage (analysis_bench ~granularity:1 func)))
      [ 8; 16; 32; 56 ]
  in
  let solver_test =
    Test.make ~name:"liveness matmul"
      (Staged.stage (fun () ->
           ignore (Tdfa_dataflow.Liveness.analyze (Kernels.matmul ()))))
  in
  let alloc_test =
    Test.make ~name:"regalloc matmul first-fit"
      (Staged.stage (fun () ->
           ignore
             (Alloc.allocate (Kernels.matmul ()) Common.standard_layout
                ~policy:Policy.First_fit)))
  in
  (* E18 companion: batch-engine throughput over the whole kernel suite,
     cold versus behind a warm content-addressed cache (every run after
     the first hits on all 16 kernels). *)
  let engine_suite =
    List.map
      (fun (name, f) -> Tdfa_engine.Engine.job name f)
      Kernels.all
  in
  let engine_cold =
    Test.make ~name:"engine batch suite (cold)"
      (Staged.stage (fun () ->
           ignore
             (Tdfa_engine.Engine.run_batch ~jobs:1
                ~layout:Common.standard_layout
                Tdfa_engine.Engine.default_spec engine_suite)))
  in
  let warm_cache = Tdfa_engine.Engine.Cache.in_memory () in
  let engine_warm =
    Test.make ~name:"engine batch suite (warm cache)"
      (Staged.stage (fun () ->
           ignore
             (Tdfa_engine.Engine.run_batch ~jobs:1 ~cache:warm_cache
                ~layout:Common.standard_layout
                Tdfa_engine.Engine.default_spec engine_suite)))
  in
  (* E20 companion: re-analysis of an unchanged function (matmul), cold
     versus answered from the previous result through Incremental. The
     result is bit-identical either way. *)
  let incr_prior, incr_config, incr_func =
    let alloc =
      Alloc.allocate (Kernels.matmul ()) Common.standard_layout
        ~policy:Policy.First_fit
    in
    let config =
      Tdfa.Driver.transfer_config
        (Tdfa.Driver.default ~layout:Common.standard_layout)
        alloc.Alloc.func alloc.Alloc.assignment
    in
    let r = Incremental.analyze config alloc.Alloc.func in
    (r.Incremental.prior, config, alloc.Alloc.func)
  in
  let incr_cold =
    Test.make ~name:"re-analysis matmul unchanged (cold)"
      (Staged.stage (fun () ->
           ignore (Analysis.fixpoint incr_config incr_func)))
  in
  let incr_warm =
    Test.make ~name:"re-analysis matmul unchanged (identity)"
      (Staged.stage (fun () ->
           ignore
             (Incremental.analyze ~prior:incr_prior incr_config incr_func)))
  in
  (* E21 companion: the flat-array core against the boxed reference, on
     the fixpoint (matmul, g=1) and on the RC steady-state solve. Both
     pairs produce bit-identical results; only the cost differs. *)
  let core_config, core_func =
    let alloc =
      Alloc.allocate (Kernels.matmul ()) Common.standard_layout
        ~policy:Policy.First_fit
    in
    ( Tdfa.Driver.transfer_config
        (Tdfa.Driver.default ~layout:Common.standard_layout)
        alloc.Alloc.func alloc.Alloc.assignment,
      alloc.Alloc.func )
  in
  let core_boxed =
    Test.make ~name:"analysis matmul core=boxed"
      (Staged.stage (fun () ->
           ignore
             (Analysis.fixpoint ~core:Analysis.Boxed core_config core_func)))
  in
  let core_flat =
    Test.make ~name:"analysis matmul core=flat"
      (Staged.stage (fun () ->
           ignore
             (Analysis.fixpoint ~core:Analysis.Flat core_config core_func)))
  in
  let steady_model =
    Tdfa_thermal.Rc_model.build Common.standard_layout
      Tdfa_thermal.Params.default
  in
  let steady_power =
    Array.init
      (Tdfa_thermal.Rc_model.num_nodes steady_model)
      (fun i -> float_of_int ((i * 37) mod 64) *. 1.0e-5)
  in
  let steady_boxed =
    Test.make ~name:"thermal/steady_boxed"
      (Staged.stage (fun () ->
           ignore
             (Tdfa_thermal.Rc_model.steady_state steady_model
                ~power:steady_power)))
  in
  let steady_ws = Tdfa_thermal.Rc_flat.make steady_model in
  let steady_flat =
    Test.make ~name:"thermal/steady_flat"
      (Staged.stage (fun () ->
           ignore (Tdfa_thermal.Rc_flat.solve_seq steady_ws ~power:steady_power)))
  in
  Test.make_grouped ~name:"tdfa"
    (granularity_tests @ size_tests @ obs_tests
    @ [
        solver_test; alloc_test; engine_cold; engine_warm; incr_cold; incr_warm;
        core_boxed; core_flat; steady_boxed; steady_flat;
      ])

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "\n==== E8 - analysis cost (Bechamel, monotonic clock) ====\n\n";
  let table =
    Tdfa_report.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ]
  in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols) ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%.0f ns" e
            | Some [] | None -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "n/a"
          in
          Tdfa_report.Table.add_row table [ name; estimate; r2 ])
        rows)
    results;
  Tdfa_report.Table.print table

let () =
  Printf.printf "Thermal-Aware Data Flow Analysis - experiment suite\n";
  Printf.printf "(paper: Ayala, Atienza, Brisk - DAC 2009; see DESIGN.md)\n";
  Experiments.run_all ();
  run_bechamel ()
