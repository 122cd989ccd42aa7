(* Coverage for corners not exercised elsewhere: fixed-scale heatmaps,
   program printing, window binning edge cases, the static cycle
   estimator, dependence-order checking and allocation under the
   feedback policy. *)

open Tdfa_ir
open Tdfa_floorplan

let layout8 = Layout.make ~rows:8 ~cols:8 ()

let test_heatmap_fixed_scale_clamps () =
  let layout = Layout.make ~rows:2 ~cols:2 () in
  (* Values outside the fixed scale clamp to the ramp ends. *)
  let temps = [| 200.0; 320.0; 330.0; 500.0 |] in
  let s =
    Tdfa_thermal.Heatmap.render_normalized ~lo:320.0 ~hi:330.0 layout temps
  in
  let lines = String.split_on_char '\n' s in
  (match lines with
   | row0 :: row1 :: _ ->
     Alcotest.(check char) "below scale = coldest" '.' row0.[0];
     Alcotest.(check char) "above scale = hottest" '@' row1.[1]
   | _ -> Alcotest.fail "bad shape");
  Alcotest.(check bool) "legend shows the fixed bounds" true
    (List.exists
       (fun l -> l = "min=320.00K max=330.00K")
       lines)

let test_printer_program_roundtrip () =
  let p = Tdfa_workload.Kernels.multiproc_program () in
  let s = Printer.program_to_string p in
  let p' = Parser.parse_program s in
  Alcotest.(check string) "program print/parse fixpoint" s
    (Printer.program_to_string p');
  Alcotest.(check int) "three functions" 3 (List.length (Program.funcs p'))

let test_windowed_counts_empty_trace () =
  let t = Tdfa_exec.Trace.of_events ~cycles:0 [] in
  let windows =
    Tdfa_exec.Trace.windowed_counts t
      ~cell_of_var:(fun _ -> Some 0)
      ~num_cells:4 ~window_cycles:100
  in
  Alcotest.(check int) "one empty window" 1 (Array.length windows)

let test_estimated_program_cycles_tracks_trips () =
  let f8 = Tdfa_workload.Kernels.fib ~n:8 () in
  let f80 = Tdfa_workload.Kernels.fib ~n:80 () in
  let est = Tdfa_optim.Pipeline.static_cycles in
  Alcotest.(check bool) "10x trips ~ 10x cycles" true
    (est f80 > 8.0 *. est f8);
  (* The estimate approximates the interpreter's cycle count. *)
  let actual = float_of_int (Tdfa_exec.Interp.run_func f80).Tdfa_exec.Interp.cycles in
  let ratio = est f80 /. actual in
  Alcotest.(check bool) "within 2x of measured" true (ratio > 0.5 && ratio < 2.0)

let test_deps_is_topological () =
  let var = Var.of_string in
  let body =
    [|
      Instr.Const (var "a", 1);
      Instr.Binop (Instr.Add, var "b", var "a", var "a");
      Instr.Binop (Instr.Add, var "c", var "b", var "a");
    |]
  in
  Alcotest.(check bool) "identity order ok" true
    (Deps.is_topological body [ 0; 1; 2 ]);
  Alcotest.(check bool) "reversed violates RAW" false
    (Deps.is_topological body [ 2; 1; 0 ]);
  Alcotest.(check bool) "wrong length rejected" false
    (Deps.is_topological body [ 0; 1 ]);
  Alcotest.(check bool) "duplicate index rejected" false
    (Deps.is_topological body [ 0; 1; 1 ])

let test_alloc_with_measured_policy () =
  (* The feedback policy is a first-class allocation policy. *)
  let temps = Array.init 64 (fun i -> 320.0 +. float_of_int (i mod 7)) in
  let f = Tdfa_workload.Kernels.fir () in
  let r =
    Tdfa_regalloc.Alloc.allocate f layout8
      ~policy:(Tdfa_regalloc.Policy.Measured temps)
  in
  Alcotest.(check int) "no spills" 0
    (Var.Set.cardinal r.Tdfa_regalloc.Alloc.spilled);
  (* Every variable of the function got a register. *)
  Var.Set.iter
    (fun v ->
      Alcotest.(check bool)
        (Var.to_string v ^ " assigned")
        true
        (Tdfa_regalloc.Assignment.cell_of_var r.Tdfa_regalloc.Alloc.assignment v
         <> None))
    (Func.all_vars r.Tdfa_regalloc.Alloc.func)

let test_region_grid_nonuniform () =
  let r = Tdfa_floorplan.Region.grid layout8 ~rows:2 ~cols:4 in
  Alcotest.(check int) "8 regions" 8 (Tdfa_floorplan.Region.num_regions r);
  Alcotest.(check int) "8 cells each" 8
    (List.length (Tdfa_floorplan.Region.cells_of_region r 0))

let test_interproc_granularity () =
  (* The interprocedural analysis respects the granularity knob. *)
  let p = Tdfa_workload.Kernels.multiproc_program () in
  let table = Hashtbl.create 4 in
  List.iter
    (fun (f : Func.t) ->
      let a =
        Tdfa_regalloc.Alloc.allocate f layout8
          ~policy:Tdfa_regalloc.Policy.First_fit
      in
      Hashtbl.replace table f.Func.name a.Tdfa_regalloc.Alloc.assignment)
    (Program.funcs p);
  let r =
    Tdfa_core.Interproc.run ~granularity:4 ~layout:layout8
      ~assignment_of:(fun f -> Hashtbl.find table f.Func.name)
      p
  in
  Alcotest.(check int) "coarse state" 4
    (Tdfa_core.Thermal_state.num_points r.Tdfa_core.Interproc.program_peak)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "misc",
      [
        tc "heatmap fixed scale clamps" `Quick test_heatmap_fixed_scale_clamps;
        tc "program print/parse" `Quick test_printer_program_roundtrip;
        tc "empty trace windows" `Quick test_windowed_counts_empty_trace;
        tc "cycle estimate tracks trips" `Quick test_estimated_program_cycles_tracks_trips;
        tc "deps topological check" `Quick test_deps_is_topological;
        tc "alloc with measured policy" `Quick test_alloc_with_measured_policy;
        tc "non-uniform region grid" `Quick test_region_grid_nonuniform;
        tc "interproc granularity" `Quick test_interproc_granularity;
      ] );
  ]
