(* Tests of the paper's core contribution: the discretized thermal state,
   the transfer function, the Fig. 2 fixpoint, criticality ranking, the
   predictive placement and the accuracy metrics. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core

let var = Var.of_string
let layout = Layout.make ~rows:8 ~cols:8 ()
let ambient = Params.default.Params.ambient_k

(* Post-RA analysis through the Driver facade, in the optional-argument
   shape the retired pre-facade wrapper had. *)
let run_post_ra ?settings ?granularity ?analysis_dt_s ~layout func assignment =
  let d = Tdfa.Driver.default ~layout in
  let cfg =
    {
      d with
      Tdfa.Driver.settings = Option.value settings ~default:d.settings;
      granularity = Option.value granularity ~default:d.granularity;
      analysis_dt_s;
    }
  in
  (Tdfa.Driver.run cfg (Tdfa.Driver.Assigned (func, assignment))).outcome

(* --- Thermal_state ------------------------------------------------------ *)

let test_state_point_grid () =
  let s = Thermal_state.create layout ~granularity:2 ~ambient_k:ambient in
  Alcotest.(check int) "4x4 points" 16 (Thermal_state.num_points s);
  Alcotest.(check int) "rows" 4 (Thermal_state.point_rows s);
  Alcotest.(check int) "cells per point" 4 (Thermal_state.cells_per_point s 0);
  (* Cells 0,1,8,9 share point 0. *)
  List.iter
    (fun c -> Alcotest.(check int) "tile" 0 (Thermal_state.point_of_cell s c))
    [ 0; 1; 8; 9 ];
  Alcotest.(check int) "cell 10 in next tile" 1 (Thermal_state.point_of_cell s 10)

let test_state_granularity_one_is_identity () =
  let s = Thermal_state.create layout ~granularity:1 ~ambient_k:ambient in
  Alcotest.(check int) "64 points" 64 (Thermal_state.num_points s);
  List.iter
    (fun c -> Alcotest.(check int) "identity" c (Thermal_state.point_of_cell s c))
    (Layout.cells layout)

let test_state_odd_granularity () =
  (* 8 rows at granularity 3: ceil(8/3) = 3 point rows; edge tiles are
     smaller. *)
  let s = Thermal_state.create layout ~granularity:3 ~ambient_k:ambient in
  Alcotest.(check int) "3x3 points" 9 (Thermal_state.num_points s);
  Alcotest.(check int) "full tile" 9 (Thermal_state.cells_per_point s 0);
  Alcotest.(check int) "edge tile" 6 (Thermal_state.cells_per_point s 2);
  Alcotest.(check int) "corner tile" 4 (Thermal_state.cells_per_point s 8)

let test_state_invalid_granularity () =
  Alcotest.(check bool) "zero rejected" true
    (match Thermal_state.create layout ~granularity:0 ~ambient_k:ambient with
     | (_ : Thermal_state.t) -> false
     | exception Invalid_argument _ -> true)

let test_state_join_max () =
  let a = Thermal_state.create layout ~granularity:4 ~ambient_k:300.0 in
  let b = Thermal_state.create layout ~granularity:4 ~ambient_k:300.0 in
  Thermal_state.set a 0 310.0;
  Thermal_state.set b 1 320.0;
  let j = Thermal_state.join_max a b in
  Alcotest.(check (float 1e-9)) "max of a" 310.0 (Thermal_state.get j 0);
  Alcotest.(check (float 1e-9)) "max of b" 320.0 (Thermal_state.get j 1);
  Alcotest.(check (float 1e-9)) "ambient elsewhere" 300.0 (Thermal_state.get j 2)

let test_state_join_average () =
  let a = Thermal_state.create layout ~granularity:4 ~ambient_k:300.0 in
  let b = Thermal_state.create layout ~granularity:4 ~ambient_k:300.0 in
  Thermal_state.set a 0 310.0;
  let j = Thermal_state.join_average a b in
  Alcotest.(check (float 1e-9)) "average" 305.0 (Thermal_state.get j 0)

let test_state_max_delta_and_copy () =
  let a = Thermal_state.create layout ~granularity:4 ~ambient_k:300.0 in
  let b = Thermal_state.copy a in
  Alcotest.(check (float 1e-12)) "copies equal" 0.0 (Thermal_state.max_delta a b);
  Thermal_state.set b 2 301.5;
  Alcotest.(check (float 1e-12)) "delta" 1.5 (Thermal_state.max_delta a b);
  (* Copy is independent. *)
  Alcotest.(check (float 1e-12)) "original untouched" 300.0 (Thermal_state.get a 2);
  Alcotest.(check bool) "within 2" true (Thermal_state.equal_within 2.0 a b);
  Alcotest.(check bool) "not within 1" false (Thermal_state.equal_within 1.0 a b)

let test_state_cell_array_roundtrip () =
  let s = Thermal_state.create layout ~granularity:2 ~ambient_k:0.0 in
  Thermal_state.map_points s (fun p _ -> float_of_int p);
  let cells = Thermal_state.to_cell_array s in
  Alcotest.(check int) "64 cells" 64 (Array.length cells);
  let s' = Thermal_state.of_cell_array layout ~granularity:2 cells in
  Alcotest.(check (float 1e-9)) "aggregate back" 0.0 (Thermal_state.max_delta s s')

let test_state_peak_mean () =
  let s = Thermal_state.create layout ~granularity:8 ~ambient_k:300.0 in
  Alcotest.(check (float 1e-9)) "peak" 300.0 (Thermal_state.peak s);
  Alcotest.(check (float 1e-9)) "mean" 300.0 (Thermal_state.mean s)

(* --- Transfer ------------------------------------------------------------- *)

let const_config ?(granularity = 1) ?(analysis_dt_s = 2.0e-6) accesses =
  Transfer.make_config ~granularity ~analysis_dt_s ~layout
    ~block_frequency:(fun _ -> 1.0)
    ~accesses_of_instr:(fun _ _ _ -> accesses)
    ~accesses_of_term:(fun _ _ -> [])
    ()

let lbl = Label.of_string

let test_transfer_heats_accessed_point () =
  let cfg = const_config [ Access.event 0 Access.Read; Access.event 0 Access.Write ] in
  let s0 = Transfer.fresh_state cfg in
  let s1 = Transfer.instr cfg (lbl "b") 0 Instr.Nop s0 in
  Alcotest.(check bool) "accessed point heats" true
    (Thermal_state.get s1 0 > Thermal_state.get s0 0);
  (* The far point only sees leakage, orders of magnitude below the
     dynamic heating. *)
  Alcotest.(check bool) "far point barely moves" true
    (Thermal_state.get s1 0 -. ambient
     > 100.0 *. (Thermal_state.get s1 63 -. ambient))

let test_transfer_cooling_pulls_to_ambient () =
  let cfg = const_config [] in
  let s0 = Transfer.fresh_state cfg in
  Thermal_state.set s0 10 (ambient +. 50.0);
  let s1 = Transfer.instr cfg (lbl "b") 0 Instr.Nop s0 in
  Alcotest.(check bool) "hot point cools" true
    (Thermal_state.get s1 10 < ambient +. 50.0)

let test_transfer_diffusion_spreads () =
  let cfg = const_config [] in
  let s0 = Transfer.fresh_state cfg in
  Thermal_state.set s0 10 (ambient +. 50.0);
  let s1 = Transfer.instr cfg (lbl "b") 0 Instr.Nop s0 in
  List.iter
    (fun q ->
      Alcotest.(check bool) "neighbour warms" true
        (Thermal_state.get s1 q > ambient))
    (Thermal_state.point_neighbors s0 10)

let test_transfer_duty_cycle () =
  (* The same access in a rarely-executed block heats less. *)
  let mk freq =
    Transfer.make_config ~layout ~max_frequency:100.0
      ~block_frequency:(fun _ -> freq)
      ~accesses_of_instr:(fun _ _ _ -> [ Access.event 5 Access.Read ])
      ~accesses_of_term:(fun _ _ -> [])
      ()
  in
  let hot_cfg = mk 100.0 and cold_cfg = mk 1.0 in
  let s_hot = Transfer.instr hot_cfg (lbl "b") 0 Instr.Nop (Transfer.fresh_state hot_cfg) in
  let s_cold = Transfer.instr cold_cfg (lbl "b") 0 Instr.Nop (Transfer.fresh_state cold_cfg) in
  Alcotest.(check bool) "hot block heats more" true
    (Thermal_state.get s_hot 5 > Thermal_state.get s_cold 5)

let test_transfer_stability_predicate () =
  Alcotest.(check bool) "default stable" true (Transfer.is_stable (const_config []));
  Alcotest.(check bool) "huge dt unstable" false
    (Transfer.is_stable (const_config ~analysis_dt_s:1.0e-3 []))

let test_transfer_write_heats_more_than_read () =
  let cfg_r = const_config [ Access.event 0 Access.Read ] in
  let cfg_w = const_config [ Access.event 0 Access.Write ] in
  let s_r = Transfer.instr cfg_r (lbl "b") 0 Instr.Nop (Transfer.fresh_state cfg_r) in
  let s_w = Transfer.instr cfg_w (lbl "b") 0 Instr.Nop (Transfer.fresh_state cfg_w) in
  Alcotest.(check bool) "write energy higher" true
    (Thermal_state.get s_w 0 > Thermal_state.get s_r 0)

(* --- Access ---------------------------------------------------------------- *)

let test_access_of_instr () =
  let a =
    Assignment.of_bindings [ (var "a", 1); (var "b", 2); (var "d", 3) ]
  in
  let i = Instr.Binop (Instr.Add, var "d", var "a", var "b") in
  Alcotest.(check (list (pair int bool)))
    "reads then write"
    [ (1, false); (2, false); (3, true) ]
    (List.map
       (fun (e : Access.event) -> (e.Access.cell, e.Access.kind = Access.Write))
       (Access.of_instr a i))

let test_access_skips_unassigned () =
  let a = Assignment.of_bindings [ (var "a", 1) ] in
  let i = Instr.Binop (Instr.Add, var "d", var "a", var "b") in
  Alcotest.(check int) "only mapped accesses" 1 (List.length (Access.of_instr a i))

let test_access_energy () =
  let e =
    Access.energy_j ~read_energy_j:1.0 ~write_energy_j:10.0
      [
        Access.event 0 Access.Read;
        Access.event 1 Access.Read;
        Access.event 2 Access.Write;
      ]
  in
  Alcotest.(check (float 1e-9)) "2 reads + 1 write" 12.0 e

(* --- Analysis (Fig. 2) ------------------------------------------------------ *)

let analyze_kernel ?settings ?granularity name =
  let func =
    match Tdfa_workload.Kernels.find name with
    | Some f -> f
    | None -> Alcotest.failf "kernel %s" name
  in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  ( alloc,
    run_post_ra ?settings ?granularity ~layout alloc.Alloc.func
      alloc.Alloc.assignment )

let test_analysis_converges_on_kernels () =
  List.iter
    (fun (name, _) ->
      let _, outcome = analyze_kernel name in
      Alcotest.(check bool) (name ^ " converges") true (Analysis.converged outcome))
    Tdfa_workload.Kernels.all

let test_analysis_outputs_state_per_instruction () =
  let alloc, outcome = analyze_kernel "fib" in
  let info = Analysis.info outcome in
  Func.iter_instrs
    (fun l i _ ->
      match Analysis.state_after info l i with
      | (_ : Thermal_state.t) -> ()
      | exception Not_found ->
        Alcotest.failf "no state after %s.%d" (Label.to_string l) i)
    alloc.Alloc.func

let test_analysis_iterations_grow_as_delta_shrinks () =
  let iters delta_k =
    let settings =
      { Analysis.default_settings with Analysis.delta_k; max_iterations = 1000 }
    in
    let _, outcome = analyze_kernel ~settings "matmul" in
    (Analysis.info outcome).Analysis.iterations
  in
  let loose = iters 1.0 and tight = iters 0.001 in
  Alcotest.(check bool) "tight needs more iterations" true (tight > loose)

let test_analysis_unstable_dt_diverges () =
  let func = Tdfa_workload.Kernels.fib () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let settings =
    { Analysis.default_settings with Analysis.max_iterations = 40 }
  in
  let outcome =
    run_post_ra ~analysis_dt_s:1.0e-4 ~settings ~layout alloc.Alloc.func
      alloc.Alloc.assignment
  in
  Alcotest.(check bool) "diverged" false (Analysis.converged outcome);
  let info = Analysis.info outcome in
  Alcotest.(check bool) "unstable instructions reported" true
    (info.Analysis.unstable <> [])

let test_analysis_predicts_above_ambient () =
  let _, outcome = analyze_kernel "matmul" in
  let peak = Analysis.peak_map (Analysis.info outcome) in
  Alcotest.(check bool) "peak above ambient" true
    (Thermal_state.peak peak > ambient +. 1.0)

let test_analysis_join_average_cooler_than_max () =
  let settings_max = { Analysis.default_settings with Analysis.join = Analysis.Max } in
  let settings_avg =
    { Analysis.default_settings with Analysis.join = Analysis.Average }
  in
  let _, o_max = analyze_kernel ~settings:settings_max "bubble_sort" in
  let _, o_avg = analyze_kernel ~settings:settings_avg "bubble_sort" in
  let p_max = Thermal_state.peak (Analysis.peak_map (Analysis.info o_max)) in
  let p_avg = Thermal_state.peak (Analysis.peak_map (Analysis.info o_avg)) in
  Alcotest.(check bool) "average join not hotter" true (p_avg <= p_max +. 1e-6)

let test_analysis_matches_simulation_shape () =
  (* The headline fidelity claim: the predicted map orders the cells like
     the RC ground truth (Spearman close to 1) and the peak cell
     matches. *)
  let func = Tdfa_workload.Kernels.matmul () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let outcome = run_post_ra ~layout alloc.Alloc.func alloc.Alloc.assignment in
  let info = Analysis.info outcome in
  let predicted = Thermal_state.to_cell_array (Analysis.mean_map info) in
  let o = Tdfa_exec.Interp.run_func alloc.Alloc.func in
  let model = Rc_model.build layout Params.default in
  let measured =
    Tdfa_exec.Driver.steady_temps model o.Tdfa_exec.Interp.trace
      ~cell_of_var:(fun v -> Assignment.cell_of_var alloc.Alloc.assignment v)
  in
  let r = Accuracy.compare_fields ~predicted ~measured in
  Alcotest.(check bool) "spearman > 0.9" true (r.Accuracy.spearman > 0.9);
  Alcotest.(check bool) "peak cell matches" true r.Accuracy.peak_cell_match;
  Alcotest.(check bool) "mae below 5K" true (r.Accuracy.mae_k < 5.0)

let test_analysis_granularity_fidelity () =
  (* Coarser state = worse or equal fidelity (E5's monotone trend,
     asserted loosely between the extremes). *)
  let func = Tdfa_workload.Kernels.matmul () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let o = Tdfa_exec.Interp.run_func alloc.Alloc.func in
  let model = Rc_model.build layout Params.default in
  let measured =
    Tdfa_exec.Driver.steady_temps model o.Tdfa_exec.Interp.trace
      ~cell_of_var:(fun v -> Assignment.cell_of_var alloc.Alloc.assignment v)
  in
  let mae g =
    let outcome =
      run_post_ra ~granularity:g ~layout alloc.Alloc.func
        alloc.Alloc.assignment
    in
    let predicted =
      Thermal_state.to_cell_array (Analysis.mean_map (Analysis.info outcome))
    in
    (Accuracy.compare_fields ~predicted ~measured).Accuracy.mae_k
  in
  Alcotest.(check bool) "g=8 no better than g=1" true (mae 8 >= mae 1 -. 0.05)

(* --- Criticality -------------------------------------------------------------- *)

let test_criticality_ranks_loop_vars_first () =
  let func = Tdfa_workload.Kernels.fib () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let cfg =
    Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) alloc.Alloc.func
      alloc.Alloc.assignment
  in
  let outcome = run_post_ra ~layout alloc.Alloc.func alloc.Alloc.assignment in
  let info = Analysis.info outcome in
  let ranked = Criticality.rank cfg info alloc.Alloc.func alloc.Alloc.assignment in
  (match ranked with
   | top :: _ ->
     (* fib's top variables are its loop-carried x, y or t. *)
     let top_name = Var.to_string top.Criticality.var in
     Alcotest.(check bool)
       (Printf.sprintf "top var %s is loop-carried" top_name)
       true
       (List.mem top_name [ "t0"; "t1"; "t2"; "t9" ])
   | [] -> Alcotest.fail "no ranking");
  (* Scores are nonnegative and sorted. *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Criticality.score >= b.Criticality.score && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (sorted ranked);
  List.iter
    (fun r -> Alcotest.(check bool) "nonnegative" true (r.Criticality.score >= 0.0))
    ranked

let test_critical_vars_subset_of_ranked () =
  let func = Tdfa_workload.Kernels.fir () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let cfg =
    Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) alloc.Alloc.func
      alloc.Alloc.assignment
  in
  let outcome = run_post_ra ~layout alloc.Alloc.func alloc.Alloc.assignment in
  let info = Analysis.info outcome in
  let critical = Criticality.critical_vars cfg info alloc.Alloc.func alloc.Alloc.assignment in
  Alcotest.(check bool) "some critical vars on a hot kernel" true (critical <> []);
  let all = Func.all_vars alloc.Alloc.func in
  List.iter
    (fun v ->
      Alcotest.(check bool) "critical var exists" true (Var.Set.mem v all))
    critical

(* --- Placement ------------------------------------------------------------------ *)

let test_placement_covers_all_vars () =
  let func = Tdfa_workload.Kernels.matmul () in
  let a = Placement.predict func layout in
  Var.Set.iter
    (fun v ->
      Alcotest.(check bool)
        (Var.to_string v ^ " placed")
        true
        (Assignment.cell_of_var a v <> None))
    (Func.all_vars func)

let test_placement_spreads_hot_vars_across_regions () =
  let func = Tdfa_workload.Kernels.fib () in
  let a = Placement.predict func layout in
  let regions = Region.quadrants layout in
  (* The four hottest variables land in four different quadrants. *)
  let dataflow_ud = Tdfa_dataflow.Use_def.build func in
  let loops = Tdfa_dataflow.Loops.analyze func in
  let weight v = Tdfa_dataflow.Use_def.weighted_access_count dataflow_ud loops v in
  let hottest =
    Var.Set.elements (Func.all_vars func)
    |> List.sort (fun x y -> Float.compare (weight y) (weight x))
    |> List.filteri (fun i _ -> i < 4)
  in
  let qs =
    List.filter_map
      (fun v ->
        Option.map (Region.region_of_cell regions) (Assignment.cell_of_var a v))
      hottest
  in
  Alcotest.(check int) "four distinct quadrants" 4
    (List.length (List.sort_uniq Int.compare qs))

let test_placement_deterministic () =
  let func = Tdfa_workload.Kernels.stencil () in
  let a1 = Placement.predict func layout in
  let a2 = Placement.predict func layout in
  Alcotest.(check bool) "same placement" true
    (Assignment.bindings a1 = Assignment.bindings a2)

(* --- Accuracy -------------------------------------------------------------------- *)

let test_accuracy_identical_fields () =
  let a = Array.init 64 (fun i -> 300.0 +. float_of_int i) in
  let r = Accuracy.compare_fields ~predicted:a ~measured:a in
  Alcotest.(check (float 1e-9)) "mae 0" 0.0 r.Accuracy.mae_k;
  Alcotest.(check (float 1e-9)) "rmse 0" 0.0 r.Accuracy.rmse_k;
  Alcotest.(check (float 1e-9)) "spearman 1" 1.0 r.Accuracy.spearman;
  Alcotest.(check bool) "peak match" true r.Accuracy.peak_cell_match

let test_accuracy_inverted_fields () =
  let a = Array.init 64 (fun i -> 300.0 +. float_of_int i) in
  let b = Array.init 64 (fun i -> 300.0 +. float_of_int (63 - i)) in
  let r = Accuracy.compare_fields ~predicted:a ~measured:b in
  Alcotest.(check (float 1e-9)) "spearman -1" (-1.0) r.Accuracy.spearman;
  Alcotest.(check bool) "peak mismatch" false r.Accuracy.peak_cell_match

let test_accuracy_constant_offset () =
  let a = Array.init 64 (fun i -> 300.0 +. float_of_int i) in
  let b = Array.map (fun x -> x +. 2.0) a in
  let r = Accuracy.compare_fields ~predicted:a ~measured:b in
  Alcotest.(check (float 1e-9)) "mae is the offset" 2.0 r.Accuracy.mae_k;
  Alcotest.(check (float 1e-9)) "spearman still 1" 1.0 r.Accuracy.spearman

let test_spearman_ties () =
  let a = [| 1.0; 1.0; 2.0; 3.0 |] in
  let b = [| 1.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "ties handled" 1.0 (Accuracy.spearman a b)

let test_spearman_constant_is_zero () =
  let a = Array.make 8 1.0 and b = Array.init 8 float_of_int in
  Alcotest.(check (float 1e-9)) "no variance" 0.0 (Accuracy.spearman a b)

let test_accuracy_length_mismatch () =
  Alcotest.(check bool) "mismatch rejected" true
    (match
       Accuracy.compare_fields ~predicted:(Array.make 3 0.0)
         ~measured:(Array.make 4 0.0)
     with
     | (_ : Accuracy.report) -> false
     | exception Invalid_argument _ -> true)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "core.thermal-state",
      [
        tc "point grid" `Quick test_state_point_grid;
        tc "granularity 1 identity" `Quick test_state_granularity_one_is_identity;
        tc "odd granularity" `Quick test_state_odd_granularity;
        tc "invalid granularity" `Quick test_state_invalid_granularity;
        tc "join max" `Quick test_state_join_max;
        tc "join average" `Quick test_state_join_average;
        tc "max delta / copy" `Quick test_state_max_delta_and_copy;
        tc "cell array roundtrip" `Quick test_state_cell_array_roundtrip;
        tc "peak/mean" `Quick test_state_peak_mean;
      ] );
    ( "core.transfer",
      [
        tc "heats accessed point" `Quick test_transfer_heats_accessed_point;
        tc "cooling" `Quick test_transfer_cooling_pulls_to_ambient;
        tc "diffusion" `Quick test_transfer_diffusion_spreads;
        tc "duty cycle" `Quick test_transfer_duty_cycle;
        tc "stability predicate" `Quick test_transfer_stability_predicate;
        tc "write > read" `Quick test_transfer_write_heats_more_than_read;
      ] );
    ( "core.access",
      [
        tc "of_instr" `Quick test_access_of_instr;
        tc "skips unassigned" `Quick test_access_skips_unassigned;
        tc "energy" `Quick test_access_energy;
      ] );
    ( "core.analysis",
      [
        tc "converges on all kernels" `Quick test_analysis_converges_on_kernels;
        tc "state per instruction" `Quick test_analysis_outputs_state_per_instruction;
        tc "iterations vs delta" `Quick test_analysis_iterations_grow_as_delta_shrinks;
        tc "unstable dt diverges" `Quick test_analysis_unstable_dt_diverges;
        tc "predicts above ambient" `Quick test_analysis_predicts_above_ambient;
        tc "average join cooler" `Quick test_analysis_join_average_cooler_than_max;
        tc "matches simulation shape" `Quick test_analysis_matches_simulation_shape;
        tc "granularity fidelity" `Quick test_analysis_granularity_fidelity;
      ] );
    ( "core.criticality",
      [
        tc "loop vars first" `Quick test_criticality_ranks_loop_vars_first;
        tc "critical subset" `Quick test_critical_vars_subset_of_ranked;
      ] );
    ( "core.placement",
      [
        tc "covers all vars" `Quick test_placement_covers_all_vars;
        tc "spreads across regions" `Quick test_placement_spreads_hot_vars_across_regions;
        tc "deterministic" `Quick test_placement_deterministic;
      ] );
    ( "core.accuracy",
      [
        tc "identical" `Quick test_accuracy_identical_fields;
        tc "inverted" `Quick test_accuracy_inverted_fields;
        tc "offset" `Quick test_accuracy_constant_offset;
        tc "spearman ties" `Quick test_spearman_ties;
        tc "spearman constant" `Quick test_spearman_constant_is_zero;
        tc "length mismatch" `Quick test_accuracy_length_mismatch;
      ] );
  ]
