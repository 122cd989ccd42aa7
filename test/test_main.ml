(* Aggregates all suites; run with `dune runtest`. *)

let () =
  Alcotest.run "tdfa"
    (Test_ir.suite @ Test_dataflow.suite @ Test_floorplan.suite
   @ Test_thermal.suite @ Test_exec.suite @ Test_regalloc.suite
   @ Test_core.suite @ Test_interproc.suite @ Test_optim.suite
   @ Test_vliw.suite @ Test_workload.suite @ Test_lang.suite
   @ Test_report.suite @ Test_misc.suite @ Test_properties.suite
   @ Test_experiments.suite @ Test_verify.suite @ Test_engine.suite
   @ Test_obs.suite @ Test_driver.suite @ Test_lint.suite
   @ Test_incremental.suite @ Test_serve.suite @ Test_core_flat.suite
   @ Test_trace.suite @ Test_absint.suite @ Test_alloc.suite
   @ Test_resident.suite @ Test_fuzz.suite)
