(* The §4 workflow end to end: analyse, find the critical variables,
   transform the program (promotion + live-range splitting), reallocate
   with a thermally-aware policy and verify the improvement against the
   RC thermal simulator — compilation guided by the analysis instead of
   by a feedback loop through a thermal emulator.

   Run with: dune exec examples/thermal_guided_compilation.exe *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_exec
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_optim

let layout = Layout.make ~rows:8 ~cols:8 ()
let model = Rc_model.build layout Params.default

let measure func (alloc : Alloc.result) =
  let outcome = Interp.run_func alloc.Alloc.func in
  let temps =
    Tdfa_exec.Driver.steady_temps model outcome.Interp.trace ~cell_of_var:(fun v ->
        Assignment.cell_of_var alloc.Alloc.assignment v)
  in
  ignore func;
  (outcome.Interp.cycles, Metrics.summarize layout temps)

let () =
  let func = Kernels.fir () in

  (* Step 1: naive compilation — first-fit assignment. *)
  let naive = Alloc.allocate func layout ~policy:Policy.First_fit in
  let naive_cycles, naive_metrics = measure func naive in

  (* Step 2: the thermal data-flow analysis predicts the hot spots and
     the variables responsible for them, with no thermal simulation in
     the loop. *)
  let outcome =
    Tdfa.Driver.outcome
      (Tdfa.Driver.run (Tdfa.Driver.default ~layout)
         (Tdfa.Driver.Assigned (naive.Alloc.func, naive.Alloc.assignment)))
  in
  let info = Analysis.info outcome in
  let cfg =
    Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) naive.Alloc.func
      naive.Alloc.assignment
  in
  let critical =
    Criticality.critical_vars cfg info naive.Alloc.func naive.Alloc.assignment
  in
  Printf.printf "analysis converged in %d iterations; critical variables: %s\n"
    info.Analysis.iterations
    (String.concat ", " (List.map Var.to_string critical));

  (* Step 3: transform — promote loop-invariant loads, split the critical
     live ranges, then reallocate spreading accesses across the RF. *)
  let transformed, prom = Promote.apply func in
  let transformed, split = Split_ranges.apply transformed ~vars:critical in
  Printf.printf "promoted %d loads, inserted %d copies\n"
    prom.Promote.promoted_addresses split.Split_ranges.copies_inserted;
  let tuned = Alloc.allocate transformed layout ~policy:Policy.Thermal_spread in
  let tuned_cycles, tuned_metrics = measure transformed tuned in

  (* Step 4: verify against the RC simulator. *)
  Printf.printf "\n%-22s %12s %12s\n" "" "naive" "thermal-aware";
  Printf.printf "%-22s %12.2f %12.2f\n" "peak (K)" naive_metrics.Metrics.peak_k
    tuned_metrics.Metrics.peak_k;
  Printf.printf "%-22s %12.2f %12.2f\n" "range (K)"
    naive_metrics.Metrics.range_k tuned_metrics.Metrics.range_k;
  Printf.printf "%-22s %12.2f %12.2f\n" "max gradient (K)"
    naive_metrics.Metrics.max_neighbor_gradient_k
    tuned_metrics.Metrics.max_neighbor_gradient_k;
  Printf.printf "%-22s %12d %12d\n" "cycles" naive_cycles tuned_cycles
