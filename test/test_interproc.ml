(* Tests of the interprocedural extension: call graph, summaries and
   whole-program analysis. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload

let layout = Layout.make ~rows:8 ~cols:8 ()

(* --- Call graph -------------------------------------------------------- *)

let program () = Kernels.multiproc_program ()

let test_callgraph_edges () =
  let g = Callgraph.build (program ()) in
  Alcotest.(check (list string)) "main calls filter then checksum"
    [ "filter"; "checksum" ] (Callgraph.callees g "main");
  Alcotest.(check (list string)) "filter is a leaf" [] (Callgraph.callees g "filter");
  Alcotest.(check (list string)) "filter called by main" [ "main" ]
    (Callgraph.callers g "filter")

let test_callgraph_sites () =
  let g = Callgraph.build (program ()) in
  Alcotest.(check int) "two call sites in main" 2
    (List.length (Callgraph.call_sites g "main"));
  Alcotest.(check int) "none in checksum" 0
    (List.length (Callgraph.call_sites g "checksum"))

let test_callgraph_topological () =
  let g = Callgraph.build (program ()) in
  let order = Callgraph.topological_order g in
  let pos name =
    let rec find i = function
      | [] -> Alcotest.failf "%s missing from order" name
      | x :: rest -> if x = name then i else find (i + 1) rest
    in
    find 0 order
  in
  Alcotest.(check bool) "callees before main" true
    (pos "filter" < pos "main" && pos "checksum" < pos "main");
  Alcotest.(check int) "all functions" 3 (List.length order)

let test_callgraph_not_recursive () =
  Alcotest.(check bool) "multiproc acyclic" false
    (Callgraph.is_recursive (Callgraph.build (program ())))

let recursive_program () =
  let b = Builder.create ~name:"loopy" ~params:[] in
  Builder.call_void b "loopy" [];
  Builder.ret b None;
  Program.of_funcs [ Builder.finish b ]

let test_callgraph_detects_recursion () =
  let g = Callgraph.build (recursive_program ()) in
  Alcotest.(check bool) "self recursion" true (Callgraph.is_recursive g);
  Alcotest.(check bool) "topological order rejected" true
    (match Callgraph.topological_order g with
     | (_ : string list) -> false
     | exception Invalid_argument _ -> true)

(* --- Summaries ----------------------------------------------------------- *)

let assignment_table p =
  let t = Hashtbl.create 4 in
  List.iter
    (fun (f : Func.t) ->
      let a = Alloc.allocate f layout ~policy:Policy.First_fit in
      Hashtbl.replace t f.Func.name a.Alloc.assignment)
    (Program.funcs p);
  t

let test_summary_energy_positive () =
  let p = program () in
  let table = assignment_table p in
  let filter =
    match Program.find p "filter" with Some f -> f | None -> assert false
  in
  let s =
    Interproc.summarize ~layout
      ~callee_summary:(fun _ -> None)
      filter
      (Hashtbl.find table "filter")
  in
  Alcotest.(check bool) "cycles positive" true (s.Interproc.cycles > 1.0);
  let total = Array.fold_left ( +. ) 0.0 s.Interproc.energy_rate_j_per_cycle in
  Alcotest.(check bool) "energy rate positive" true (total > 0.0);
  (* A register file access per cycle costs a few pJ: the per-cycle rate
     of the whole function must stay in a physical range. *)
  Alcotest.(check bool) "rate physically plausible" true (total < 1.0e-9)

let test_summary_includes_callees () =
  let p = program () in
  let table = assignment_table p in
  let main = Program.main p in
  let leaf_summary name =
    match Program.find p name with
    | Some f ->
      Some
        (Interproc.summarize ~layout
           ~callee_summary:(fun _ -> None)
           f (Hashtbl.find table name))
    | None -> None
  in
  let with_callees =
    Interproc.summarize ~layout ~callee_summary:leaf_summary main
      (Hashtbl.find table "main")
  in
  let without =
    Interproc.summarize ~layout
      ~callee_summary:(fun _ -> None)
      main (Hashtbl.find table "main")
  in
  Alcotest.(check bool) "callees add time" true
    (with_callees.Interproc.cycles > without.Interproc.cycles);
  let total s = Array.fold_left ( +. ) 0.0 s.Interproc.energy_rate_j_per_cycle in
  (* Total energy per invocation grows with callees folded in. *)
  Alcotest.(check bool) "callees add energy" true
    (total with_callees *. with_callees.Interproc.cycles
     > total without *. without.Interproc.cycles)

(* --- Whole-program run ------------------------------------------------------ *)

let run_interproc () =
  let p = program () in
  let table = assignment_table p in
  Interproc.run ~layout
    ~assignment_of:(fun f -> Hashtbl.find table f.Func.name)
    p

let test_interproc_analyzes_all_functions () =
  let r = run_interproc () in
  Alcotest.(check int) "three outcomes" 3 (List.length r.Interproc.per_function);
  List.iter
    (fun (name, outcome) ->
      Alcotest.(check bool) (name ^ " converged") true (Analysis.converged outcome))
    r.Interproc.per_function

let test_interproc_hotter_than_main_alone () =
  let r = run_interproc () in
  let p = program () in
  let table = assignment_table p in
  let main = Program.main p in
  let naive =
    Tdfa_harness.Common.analyze_assigned ~layout main
      (Hashtbl.find table "main")
  in
  let naive_peak = Thermal_state.peak (Analysis.peak_map (Analysis.info naive)) in
  Alcotest.(check bool) "summaries raise the program peak" true
    (Thermal_state.peak r.Interproc.program_peak > naive_peak +. 1.0)

let test_interproc_close_to_measured () =
  let p = program () in
  let table = assignment_table p in
  let r =
    Interproc.run ~layout
      ~assignment_of:(fun f -> Hashtbl.find table f.Func.name)
      p
  in
  let union =
    Hashtbl.fold (fun _ a acc -> Assignment.bindings a @ acc) table []
    |> Assignment.of_bindings
  in
  let o = Tdfa_exec.Interp.run p "main" in
  let model = Tdfa_thermal.Rc_model.build layout Tdfa_thermal.Params.default in
  let measured =
    Tdfa_exec.Driver.steady_temps model o.Tdfa_exec.Interp.trace
      ~cell_of_var:(fun v -> Assignment.cell_of_var union v)
  in
  let predicted = Thermal_state.to_cell_array r.Interproc.program_peak in
  let rep = Accuracy.compare_fields ~predicted ~measured in
  Alcotest.(check bool) "mae under 3K" true (rep.Accuracy.mae_k < 3.0);
  Alcotest.(check bool) "orders cells well" true (rep.Accuracy.spearman > 0.8)

let test_interproc_rejects_recursion () =
  Alcotest.(check bool) "recursive program rejected" true
    (match
       Interproc.run ~layout
         ~assignment_of:(fun f ->
           (Alloc.allocate f layout ~policy:Policy.First_fit).Alloc.assignment)
         (recursive_program ())
     with
     | (_ : Interproc.result) -> false
     | exception Invalid_argument _ -> true)

(* A one-function program has no call site to summarise, so the
   interprocedural run is the driver's assigned-function analysis: one
   transfer-configuration builder serves both. *)
let test_interproc_single_function_is_driver_run () =
  List.iter
    (fun (name, f) ->
      let a = Alloc.allocate f layout ~policy:Policy.First_fit in
      List.iter
        (fun granularity ->
          let r =
            Interproc.run ~granularity ~layout
              ~assignment_of:(fun _ -> a.Alloc.assignment)
              (Program.of_funcs [ a.Alloc.func ])
          in
          let direct =
            Tdfa.Driver.run
              { (Tdfa.Driver.default ~layout) with Tdfa.Driver.granularity }
              (Tdfa.Driver.Assigned (a.Alloc.func, a.Alloc.assignment))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s at granularity %d" name granularity)
            (Tdfa_engine.Engine.fingerprint direct.Tdfa.Driver.outcome)
            (Tdfa_engine.Engine.fingerprint
               (List.assoc name r.Interproc.per_function)))
        [ 1; 2 ])
    Kernels.all

(* --- Multiproc workload sanity ------------------------------------------------ *)

let test_multiproc_executes () =
  let o = Tdfa_exec.Interp.run (program ()) "main" in
  Alcotest.(check bool) "ran" true (o.Tdfa_exec.Interp.cycles > 100)

let test_multiproc_var_namespaces_disjoint () =
  let p = program () in
  let vars_of name =
    match Program.find p name with
    | Some f -> Func.all_vars f
    | None -> Var.Set.empty
  in
  Alcotest.(check bool) "filter/checksum disjoint" true
    (Var.Set.is_empty (Var.Set.inter (vars_of "filter") (vars_of "checksum")));
  Alcotest.(check bool) "main/filter disjoint" true
    (Var.Set.is_empty (Var.Set.inter (vars_of "main") (vars_of "filter")))

let test_rename_with_prefix_preserves_semantics () =
  let f = Kernels.fib ~n:12 () in
  let f' = Kernels.rename_with_prefix f ~name:"other" ~prefix:"p_" in
  let v g = (Tdfa_exec.Interp.run_func g).Tdfa_exec.Interp.return_value in
  Alcotest.(check (option int)) "same value" (v f) (v f');
  Alcotest.(check string) "renamed" "other" f'.Func.name

let suite =
  let tc = Alcotest.test_case in
  [
    ( "interproc.callgraph",
      [
        tc "edges" `Quick test_callgraph_edges;
        tc "call sites" `Quick test_callgraph_sites;
        tc "topological order" `Quick test_callgraph_topological;
        tc "acyclic" `Quick test_callgraph_not_recursive;
        tc "detects recursion" `Quick test_callgraph_detects_recursion;
      ] );
    ( "interproc.summary",
      [
        tc "energy positive" `Quick test_summary_energy_positive;
        tc "includes callees" `Quick test_summary_includes_callees;
      ] );
    ( "interproc.run",
      [
        tc "analyzes all functions" `Quick test_interproc_analyzes_all_functions;
        tc "hotter than main alone" `Quick test_interproc_hotter_than_main_alone;
        tc "close to measured" `Quick test_interproc_close_to_measured;
        tc "rejects recursion" `Quick test_interproc_rejects_recursion;
        tc "one function == driver run" `Quick
          test_interproc_single_function_is_driver_run;
      ] );
    ( "interproc.workload",
      [
        tc "multiproc executes" `Quick test_multiproc_executes;
        tc "namespaces disjoint" `Quick test_multiproc_var_namespaces_disjoint;
        tc "rename preserves semantics" `Quick test_rename_with_prefix_preserves_semantics;
      ] );
  ]
