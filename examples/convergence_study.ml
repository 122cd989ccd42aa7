(* Convergence behaviour of the Fig. 2 fixpoint: iterations as a function
   of the user parameter delta, and the non-convergence escape hatch when
   the transfer step is numerically unstable ("the thermal state of the
   program may be too difficult to predict at compile time", §4).

   Run with: dune exec examples/convergence_study.exe *)

open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload

let layout = Layout.make ~rows:8 ~cols:8 ()

let () =
  let func = Kernels.matmul () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  Printf.printf "%10s  %10s  %s\n" "delta (K)" "iterations" "converged";
  List.iter
    (fun delta_k ->
      let settings =
        { Analysis.default_settings with
          Analysis.delta_k;
          max_iterations = 1000;
        }
      in
      let outcome =
        Tdfa.Driver.outcome
          (Tdfa.Driver.run
             { (Tdfa.Driver.default ~layout) with Tdfa.Driver.settings }
             (Tdfa.Driver.Assigned (alloc.Alloc.func, alloc.Alloc.assignment)))
      in
      let info = Analysis.info outcome in
      Printf.printf "%10g  %10d  %b\n" delta_k info.Analysis.iterations
        (Analysis.converged outcome))
    [ 2.0; 1.0; 0.5; 0.1; 0.05; 0.01; 0.005; 0.001 ];

  (* Push the virtual timestep past the explicit-integration stability
     bound: the fixpoint oscillates and the analysis reports divergence
     with the offending instructions. *)
  let settings =
    { Analysis.default_settings with Analysis.max_iterations = 60 }
  in
  let outcome =
    Tdfa.Driver.outcome
      (Tdfa.Driver.run
         { (Tdfa.Driver.default ~layout) with
           Tdfa.Driver.settings;
           analysis_dt_s = Some 1.0e-4;
         }
         (Tdfa.Driver.Assigned (alloc.Alloc.func, alloc.Alloc.assignment)))
  in
  let info = Analysis.info outcome in
  Printf.printf
    "\nunstable step (dt = 1e-4 s): converged=%b after %d iterations, %d \
     instructions still moving\n"
    (Analysis.converged outcome)
    info.Analysis.iterations
    (List.length info.Analysis.unstable);
  let cfg =
    Tdfa.Driver.transfer_config
      {
        (Tdfa.Driver.default ~layout) with
        Tdfa.Driver.analysis_dt_s = Some 1.0e-4;
      }
      alloc.Alloc.func alloc.Alloc.assignment
  in
  Printf.printf "transfer step stable at this dt? %b\n" (Transfer.is_stable cfg)
