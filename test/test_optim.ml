(* Tests of the thermal-aware optimization passes. The central property:
   every pass preserves observable semantics (return value and memory
   below the spill area). *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_core
open Tdfa_optim
open Tdfa_workload

let layout = Layout.make ~rows:8 ~cols:8 ()

let observe f =
  let o = Tdfa_exec.Interp.run_func f in
  ( o.Tdfa_exec.Interp.return_value,
    List.filter (fun (a, _) -> a < Spill.base_address) o.Tdfa_exec.Interp.memory )

let check_semantics name f f' =
  (match Validate.check f' with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s produced invalid IR:\n%s" name e);
  let v0, m0 = observe f in
  let v1, m1 = observe f' in
  Alcotest.(check (option int)) (name ^ ": return value") v0 v1;
  Alcotest.(check bool) (name ^ ": memory") true (m0 = m1)

let critical_of func =
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let cfg =
    Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) alloc.Alloc.func
      alloc.Alloc.assignment
  in
  let outcome =
    Tdfa_harness.Common.analyze_assigned ~layout alloc.Alloc.func
      alloc.Alloc.assignment
  in
  let info = Analysis.info outcome in
  (alloc, info,
   Criticality.critical_vars cfg info alloc.Alloc.func alloc.Alloc.assignment)

(* --- Spill_critical ---------------------------------------------------- *)

let test_spill_critical_semantics () =
  List.iter
    (fun name ->
      let func =
        match Kernels.find name with Some f -> f | None -> assert false
      in
      let _, _, critical = critical_of func in
      let f', report = Spill_critical.apply func ~critical ~max_spills:2 in
      check_semantics ("spill_critical " ^ name) func f';
      Alcotest.(check bool)
        (name ^ " spilled at most 2") true
        (List.length report.Spill_critical.spilled <= 2))
    [ "fir"; "fib"; "crc"; "dotprod" ]

let test_spill_critical_zero_budget () =
  let func = Kernels.fib () in
  let _, _, critical = critical_of func in
  let f', report = Spill_critical.apply func ~critical ~max_spills:0 in
  Alcotest.(check int) "nothing spilled" 0
    (List.length report.Spill_critical.spilled);
  Alcotest.(check int) "no code growth" (Func.instr_count func)
    (Func.instr_count f')

(* --- Split_ranges ------------------------------------------------------- *)

let test_split_semantics () =
  List.iter
    (fun name ->
      let func =
        match Kernels.find name with Some f -> f | None -> assert false
      in
      let _, _, critical = critical_of func in
      let f', _ = Split_ranges.apply func ~vars:critical in
      check_semantics ("split " ^ name) func f')
    [ "fir"; "matmul"; "crc"; "horner"; "stencil" ]

let test_split_inserts_copies_in_read_only_blocks () =
  let func = Kernels.fir () in
  (* The FIR coefficients are defined in the entry and only read in the
     loop body: splitting them must insert copies. *)
  let _, _, critical = critical_of func in
  let f', report = Split_ranges.apply func ~vars:critical in
  Alcotest.(check bool) "copies inserted" true
    (report.Split_ranges.copies_inserted > 0);
  Alcotest.(check bool) "code grew accordingly" true
    (Func.instr_count f'
     = Func.instr_count func + report.Split_ranges.copies_inserted)

let test_split_skips_defining_blocks () =
  (* A variable defined in every block it appears in cannot be split. *)
  let b = Builder.create ~name:"d" ~params:[] in
  let x = Builder.const b 1 in
  Builder.ret b (Some x);
  let func = Builder.finish b in
  let f', report = Split_ranges.apply func ~vars:[ x ] in
  Alcotest.(check int) "no copies" 0 report.Split_ranges.copies_inserted;
  Alcotest.(check int) "unchanged" (Func.instr_count func) (Func.instr_count f')

let test_split_spreads_allocation () =
  (* After splitting, a spreading policy uses more registers (first-fit
     may legally collocate the move-related copy with its source, so the
     property is asserted under thermal-spread). *)
  let func = Kernels.fir () in
  let _, _, critical = critical_of func in
  let f', _ = Split_ranges.apply func ~vars:critical in
  let regs f =
    let a = Alloc.allocate f layout ~policy:Policy.Thermal_spread in
    List.length (Assignment.cells_in_use a.Alloc.assignment)
  in
  Alcotest.(check bool) "more registers in use" true (regs f' > regs func)

(* --- Schedule -------------------------------------------------------------- *)

let cell_by_hash v = Some (Hashtbl.hash (Var.to_string v) mod 64)

let test_schedule_semantics () =
  List.iter
    (fun name ->
      let func =
        match Kernels.find name with Some f -> f | None -> assert false
      in
      let f', _ =
        Schedule.apply func ~cell_of_var:cell_by_hash ~is_hot_cell:(fun _ -> false)
      in
      check_semantics ("schedule " ^ name) func f')
    [ "idct_row"; "matmul"; "fir"; "stencil"; "bubble_sort"; "crc" ]

let test_schedule_reduces_back_to_back () =
  let func = Kernels.idct_row () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let cell v = Assignment.cell_of_var alloc.Alloc.assignment v in
  let f', report =
    Schedule.apply alloc.Alloc.func ~cell_of_var:cell ~is_hot_cell:(fun _ -> false)
  in
  Alcotest.(check bool) "b2b not increased" true
    (report.Schedule.back_to_back_after <= report.Schedule.back_to_back_before);
  Alcotest.(check int) "count function consistent"
    report.Schedule.back_to_back_after
    (Schedule.count_back_to_back f' ~cell_of_var:cell)

let test_schedule_keeps_instruction_multiset () =
  let func = Kernels.idct_row () in
  let f', _ =
    Schedule.apply func ~cell_of_var:cell_by_hash ~is_hot_cell:(fun _ -> false)
  in
  let multiset f =
    List.concat_map
      (fun (b : Block.t) ->
        List.sort compare (Array.to_list b.Block.body))
      f.Func.blocks
  in
  Alcotest.(check bool) "same instructions per block" true
    (multiset func = multiset f')

let test_schedule_respects_memory_order () =
  (* store then load of the same address must not be swapped. *)
  let b = Builder.create ~name:"mo" ~params:[] in
  let base = Builder.const b 100 in
  let v = Builder.const b 9 in
  Builder.store b ~value:v ~base 0;
  let r = Builder.load b ~base 0 in
  Builder.ret b (Some r);
  let func = Builder.finish b in
  let f', _ =
    Schedule.apply func ~cell_of_var:cell_by_hash ~is_hot_cell:(fun _ -> false)
  in
  check_semantics "memory order" func f'

(* --- Promote -------------------------------------------------------------- *)

let test_promote_scale () =
  let func = Kernels.scale () in
  let f', report = Promote.apply func in
  Alcotest.(check int) "one address promoted" 1 report.Promote.promoted_addresses;
  Alcotest.(check bool) "loads rewritten" true (report.Promote.loads_rewritten >= 1);
  check_semantics "promote scale" func f';
  (* Fewer loads at run time. *)
  let cycles f = (Tdfa_exec.Interp.run_func f).Tdfa_exec.Interp.cycles in
  Alcotest.(check bool) "faster" true (cycles f' < cycles func)

let test_promote_no_false_positive () =
  (* bubble_sort stores through dynamic addresses into region 0 and loads
     from region 0: nothing may be promoted. *)
  let func = Kernels.bubble_sort () in
  let f', report = Promote.apply func in
  Alcotest.(check int) "nothing promoted" 0 report.Promote.promoted_addresses;
  Alcotest.(check string) "unchanged" (Printer.func_to_string func)
    (Printer.func_to_string f')

let test_promote_semantics_all_kernels () =
  List.iter
    (fun (name, func) ->
      let f', _ = Promote.apply func in
      check_semantics ("promote " ^ name) func f')
    Kernels.all

(* --- Nop_insert ------------------------------------------------------------- *)

let test_nop_insert_counts () =
  let func = Kernels.fib () in
  let f', report =
    Nop_insert.apply func ~hot_after:(fun _ _ -> true) ~nops:2
  in
  Alcotest.(check int) "two nops per instruction"
    (2 * Func.instr_count func)
    report.Nop_insert.nops_inserted;
  Alcotest.(check int) "code size"
    (3 * Func.instr_count func)
    (Func.instr_count f');
  check_semantics "nop everywhere" func f'

let test_nop_insert_selective () =
  let func = Kernels.fib () in
  let f', report =
    Nop_insert.apply func
      ~hot_after:(fun l i -> Label.to_string l = "entry" && i = 0)
      ~nops:3
  in
  Alcotest.(check int) "three nops" 3 report.Nop_insert.nops_inserted;
  check_semantics "nop selective" func f'

let test_nop_insert_none () =
  let func = Kernels.fib () in
  let f', report = Nop_insert.apply func ~hot_after:(fun _ _ -> false) ~nops:5 in
  Alcotest.(check int) "no nops" 0 report.Nop_insert.nops_inserted;
  Alcotest.(check int) "unchanged" (Func.instr_count func) (Func.instr_count f')

(* --- Cleanup (DCE / copy prop / folding) ------------------------------------- *)

let test_dce_removes_dead_code () =
  let b = Builder.create ~name:"dead" ~params:[] in
  let live = Builder.const b 1 in
  let dead1 = Builder.const b 2 in
  let _dead2 = Builder.binop b Instr.Add dead1 dead1 in
  Builder.ret b (Some live);
  let func = Builder.finish b in
  let f', removed = Cleanup.dead_code_elimination func in
  Alcotest.(check int) "two removed (cascade)" 2 removed;
  Alcotest.(check int) "one instr left" 1 (Func.instr_count f');
  check_semantics "dce" func f'

let test_dce_keeps_side_effects () =
  let func = Kernels.vecadd ~n:4 () in
  let f', _ = Cleanup.dead_code_elimination func in
  check_semantics "dce vecadd" func f'

let test_dce_all_kernels_semantics () =
  List.iter
    (fun (name, func) ->
      let f', _ = Cleanup.dead_code_elimination func in
      check_semantics ("dce " ^ name) func f')
    Kernels.all

let test_copy_prop_rewrites () =
  let b = Builder.create ~name:"cp" ~params:[ "x" ] in
  let x = Builder.param b 0 in
  let c = Builder.mov b x in
  let r = Builder.binop b Instr.Add c c in
  Builder.ret b (Some r);
  let func = Builder.finish b in
  let f', rewritten = Cleanup.copy_propagation func in
  Alcotest.(check bool) "uses rewritten" true (rewritten >= 2);
  check_semantics "copy prop" func f'

let test_copy_prop_stops_at_redefinition () =
  (* d <- mov s; s <- const; use d : d must NOT read the new s. *)
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"cp2" ~params:[]
      [
        Block.make (lbl "entry")
          [
            Instr.Const (var "s", 1);
            Instr.Unop (Instr.Mov, var "d", var "s");
            Instr.Const (var "s", 99);
            Instr.Binop (Instr.Add, var "r", var "d", var "d");
          ]
          (Block.Return (Some (var "r")));
      ]
  in
  let f', _ = Cleanup.copy_propagation func in
  check_semantics "redefinition barrier" func f';
  let o = Tdfa_exec.Interp.run_func f' in
  Alcotest.(check (option int)) "r = 2" (Some 2) o.Tdfa_exec.Interp.return_value

let test_constant_folding_folds () =
  let b = Builder.create ~name:"cf" ~params:[] in
  let x = Builder.const b 6 in
  let y = Builder.const b 7 in
  let p = Builder.binop b Instr.Mul x y in
  Builder.ret b (Some p);
  let func = Builder.finish b in
  let f', folded = Cleanup.constant_folding func in
  Alcotest.(check bool) "folded" true (folded >= 1);
  check_semantics "folding" func f';
  let o = Tdfa_exec.Interp.run_func f' in
  Alcotest.(check (option int)) "42" (Some 42) o.Tdfa_exec.Interp.return_value

let test_constant_folding_kills_branch () =
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"kb" ~params:[]
      [
        Block.make (lbl "entry")
          [ Instr.Const (var "c", 1) ]
          (Block.Branch (var "c", lbl "t", lbl "e"));
        Block.make (lbl "t")
          [ Instr.Const (var "r", 10) ]
          (Block.Jump (lbl "j"));
        Block.make (lbl "e")
          [ Instr.Const (var "r", 20) ]
          (Block.Jump (lbl "j"));
        Block.make (lbl "j") [] (Block.Return (Some (var "r")));
      ]
  in
  let f', _ = Cleanup.constant_folding func in
  (* The false branch became unreachable and was dropped. *)
  Alcotest.(check int) "three blocks left" 3 (List.length f'.Func.blocks);
  let o = Tdfa_exec.Interp.run_func f' in
  Alcotest.(check (option int)) "took the true branch" (Some 10)
    o.Tdfa_exec.Interp.return_value

let test_lvn_eliminates_recomputation () =
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"lvn" ~params:[ var "a"; var "b" ]
      [
        Block.make (lbl "entry")
          [
            Instr.Binop (Instr.Add, var "x", var "a", var "b");
            Instr.Binop (Instr.Add, var "y", var "b", var "a");
            (* commutative hit *)
            Instr.Binop (Instr.Mul, var "r", var "x", var "y");
          ]
          (Block.Return (Some (var "r")));
      ]
  in
  let f', replaced = Cleanup.local_value_numbering func in
  Alcotest.(check int) "one replacement" 1 replaced;
  check_semantics "lvn" func f';
  (* The second add became a move. *)
  let moves =
    Func.fold_instrs
      (fun acc _ _ i ->
        match i with
        | Instr.Unop (Instr.Mov, _, _) -> acc + 1
        | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
        | Instr.Store _ | Instr.Call _ | Instr.Nop ->
          acc)
      0 f'
  in
  Alcotest.(check int) "move inserted" 1 moves

let test_lvn_respects_redefinition () =
  let var = Var.of_string in
  let lbl = Label.of_string in
  (* x = a+b; a = const; y = a+b : y must NOT reuse x. *)
  let func =
    Func.make ~name:"lvn2" ~params:[ var "a"; var "b" ]
      [
        Block.make (lbl "entry")
          [
            Instr.Binop (Instr.Add, var "x", var "a", var "b");
            Instr.Const (var "a", 100);
            Instr.Binop (Instr.Add, var "y", var "a", var "b");
            Instr.Binop (Instr.Sub, var "r", var "x", var "y");
          ]
          (Block.Return (Some (var "r")));
      ]
  in
  let f', replaced = Cleanup.local_value_numbering func in
  Alcotest.(check int) "no unsafe replacement" 0 replaced;
  check_semantics "lvn redefinition" func f'

let test_lvn_accumulator_not_numbered () =
  (* Regression: t1 = add t1, t3 computes a value from the OLD t1; a
     later add t3, t1 must not be "reused" from it (found by the QCheck
     sweep). *)
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"acc" ~params:[ var "t1"; var "t3" ]
      [
        Block.make (lbl "entry")
          [
            Instr.Binop (Instr.Add, var "t1", var "t1", var "t3");
            Instr.Binop (Instr.Add, var "t3", var "t3", var "t1");
            Instr.Binop (Instr.Sub, var "r", var "t3", var "t1");
          ]
          (Block.Return (Some (var "r")));
      ]
  in
  let f', _ = Cleanup.local_value_numbering func in
  let v g =
    (Tdfa_exec.Interp.run_func ~args:[ 2; 3 ] g).Tdfa_exec.Interp.return_value
  in
  (* t1 = 5; t3 = 8; r = 3. *)
  Alcotest.(check (option int)) "reference" (Some 3) (v func);
  Alcotest.(check (option int)) "after lvn" (Some 3) (v f')

let test_lvn_semantics_all_kernels () =
  List.iter
    (fun (name, func) ->
      let f', _ = Cleanup.local_value_numbering func in
      check_semantics ("lvn " ^ name) func f')
    Kernels.all

let test_cleanup_run_all_semantics () =
  List.iter
    (fun (name, func) ->
      let f' = Cleanup.run_all func in
      check_semantics ("cleanup " ^ name) func f')
    Kernels.all

let test_cleanup_after_split_removes_dead_moves () =
  (* Splitting inserts copies; if a block then never reads one (because
     folding simplified it), DCE cleans up. End-to-end smoke of the pass
     order. *)
  let func = Kernels.fir () in
  let _, _, critical = critical_of func in
  let split, _ = Split_ranges.apply func ~vars:critical in
  let cleaned = Cleanup.run_all split in
  check_semantics "split+cleanup" func cleaned

(* --- Strength reduction ---------------------------------------------------- *)

let test_strength_mul_to_shift () =
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"str" ~params:[ var "x" ]
      [
        Block.make (lbl "entry")
          [
            Instr.Const (var "eight", 8);
            Instr.Binop (Instr.Mul, var "y", var "x", var "eight");
          ]
          (Block.Return (Some (var "y")));
      ]
  in
  let f', changed = Strength.apply func in
  Alcotest.(check int) "one rewrite" 1 changed;
  let has_shl =
    Func.fold_instrs
      (fun acc _ _ i ->
        acc
        ||
        match i with
        | Instr.Binop (Instr.Shl, _, _, _) -> true
        | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
        | Instr.Store _ | Instr.Call _ | Instr.Nop ->
          false)
      false f'
  in
  Alcotest.(check bool) "shift emitted" true has_shl;
  let v g = (Tdfa_exec.Interp.run_func ~args:[ 5 ] g).Tdfa_exec.Interp.return_value in
  Alcotest.(check (option int)) "5*8" (Some 40) (v f');
  Alcotest.(check (option int)) "matches original" (v func) (v f')

let test_strength_identities () =
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"ids" ~params:[ var "x" ]
      [
        Block.make (lbl "entry")
          [
            Instr.Const (var "zero", 0);
            Instr.Const (var "one", 1);
            Instr.Binop (Instr.Add, var "a", var "x", var "zero");
            Instr.Binop (Instr.Mul, var "b", var "a", var "one");
            Instr.Binop (Instr.Xor, var "c", var "b", var "b");
            Instr.Binop (Instr.Add, var "r", var "b", var "c");
          ]
          (Block.Return (Some (var "r")));
      ]
  in
  let f', changed = Strength.apply func in
  Alcotest.(check bool) "several rewrites" true (changed >= 3);
  let v g = (Tdfa_exec.Interp.run_func ~args:[ 13 ] g).Tdfa_exec.Interp.return_value in
  Alcotest.(check (option int)) "identity result" (Some 13) (v f')

let test_strength_no_false_rewrites () =
  (* Non-power-of-two multiplications stay. *)
  let var = Var.of_string in
  let lbl = Label.of_string in
  let func =
    Func.make ~name:"np2" ~params:[ var "x" ]
      [
        Block.make (lbl "entry")
          [
            Instr.Const (var "k", 6);
            Instr.Binop (Instr.Mul, var "y", var "x", var "k");
          ]
          (Block.Return (Some (var "y")));
      ]
  in
  let _, changed = Strength.apply func in
  Alcotest.(check int) "no rewrite" 0 changed

let test_strength_semantics_all_kernels () =
  List.iter
    (fun (name, func) ->
      let f', _ = Strength.apply func in
      check_semantics ("strength " ^ name) func f')
    Kernels.all

(* --- Unroll -------------------------------------------------------------------- *)

let test_unroll_identity_factor_one () =
  let func = Kernels.matmul () in
  let f', r = Unroll.apply func ~factor:1 in
  Alcotest.(check int) "no loops touched" 0 r.Unroll.unrolled_loops;
  Alcotest.(check string) "identical" (Printer.func_to_string func)
    (Printer.func_to_string f')

let test_unroll_semantics_and_speed () =
  List.iter
    (fun factor ->
      let func = Kernels.matmul () in
      let f', r = Unroll.apply func ~factor in
      Alcotest.(check bool)
        (Printf.sprintf "factor %d unrolled something" factor)
        true
        (r.Unroll.unrolled_loops >= 1);
      check_semantics (Printf.sprintf "unroll x%d" factor) func f';
      let cycles f = (Tdfa_exec.Interp.run_func f).Tdfa_exec.Interp.cycles in
      Alcotest.(check bool) "fewer cycles" true (cycles f' < cycles func))
    [ 2; 4; 8 ]

let test_unroll_skips_nondivisible () =
  (* fib's loop has trip 30: factor 7 does not divide it. *)
  let func = Kernels.fib () in
  let f', r = Unroll.apply func ~factor:7 in
  Alcotest.(check int) "skipped" 0 r.Unroll.unrolled_loops;
  Alcotest.(check string) "identical" (Printer.func_to_string func)
    (Printer.func_to_string f')

let test_unroll_rejects_bad_factor () =
  Alcotest.(check bool) "factor 0 rejected" true
    (match Unroll.apply (Kernels.fib ()) ~factor:0 with
     | (_ : Func.t * Unroll.report) -> false
     | exception Invalid_argument _ -> true)

let test_unroll_all_kernels_semantics () =
  List.iter
    (fun (name, func) ->
      let f', _ = Unroll.apply func ~factor:2 in
      check_semantics ("unroll " ^ name) func f')
    Kernels.all

(* --- Compile driver -------------------------------------------------------------- *)

let test_compile_preserves_semantics () =
  List.iter
    (fun name ->
      let func =
        match Kernels.find name with Some f -> f | None -> assert false
      in
      let r = Compile.run ~layout func in
      check_semantics ("compile " ^ name) func r.Compile.func)
    [ "fir"; "matmul"; "crc"; "scale"; "idct_row"; "bubble_sort" ]

let test_compile_cools_vs_first_fit () =
  let func = Kernels.fir () in
  let naive = Alloc.allocate func layout ~policy:Policy.First_fit in
  let measure f assignment =
    let o = Tdfa_exec.Interp.run_func f in
    let temps =
      Tdfa_exec.Driver.steady_temps
        (Tdfa_thermal.Rc_model.build layout Tdfa_thermal.Params.default)
        o.Tdfa_exec.Interp.trace
        ~cell_of_var:(fun v -> Assignment.cell_of_var assignment v)
    in
    (Tdfa_thermal.Metrics.summarize layout temps).Tdfa_thermal.Metrics.peak_k
  in
  let before = measure naive.Alloc.func naive.Alloc.assignment in
  let r = Compile.run ~layout func in
  let after = measure r.Compile.func r.Compile.assignment in
  Alcotest.(check bool) "compiled code runs cooler" true (after < before -. 2.0)

let test_compile_reports_steps () =
  let r = Compile.run ~layout (Kernels.fir ()) in
  Alcotest.(check bool) "several steps" true (List.length r.Compile.steps >= 4);
  Alcotest.(check bool) "critical vars found" true (r.Compile.critical <> []);
  Alcotest.(check bool) "final analysis converged" true
    (Analysis.converged r.Compile.analysis)

let test_compile_options_toggle () =
  (* [cleanup] and [cooling_nops] each add or drop exactly their step. *)
  let passes options =
    List.map
      (fun (s : Pipeline.step) -> s.Pipeline.pass)
      (Compile.run ~options ~layout (Kernels.fib ())).Compile.steps
  in
  Alcotest.(check (list string))
    "cleanup off, no NOPs"
    [ "original"; "promote"; "split"; "schedule" ]
    (passes { Compile.default_options with Compile.cleanup = false });
  Alcotest.(check (list string))
    "cleanup on, one NOP"
    [ "original"; "cleanup"; "promote"; "split"; "schedule"; "cooling-nops" ]
    (passes { Compile.default_options with Compile.cooling_nops = 1 })

let test_compile_with_nops_cools_more () =
  let func = Kernels.crc () in
  let base = Compile.run ~layout func in
  let options = { Compile.default_options with Compile.cooling_nops = 1 } in
  let nops = Compile.run ~options ~layout func in
  let peak r =
    Thermal_state.peak (Analysis.peak_map (Analysis.info r.Compile.analysis))
  in
  Alcotest.(check bool) "nops lower the predicted peak" true
    (peak nops < peak base);
  check_semantics "compile+nops" func nops.Compile.func

(* --- Pipeline ------------------------------------------------------------------ *)

let test_pipeline_accounting () =
  let func = Kernels.fib () in
  let t = Pipeline.start func in
  let t =
    Pipeline.apply t ~name:"nop" ~detail:"everywhere" (fun f ->
        fst (Nop_insert.apply f ~hot_after:(fun _ _ -> true) ~nops:1))
  in
  Alcotest.(check int) "two steps" 2 (List.length t.Pipeline.steps);
  Alcotest.(check bool) "overhead positive" true (Pipeline.overhead_percent t > 0.0)

let test_pipeline_static_cycles_weighted () =
  (* The static estimate weights loop bodies by trip count. *)
  let small = Pipeline.static_cycles (Kernels.fib ~n:5 ()) in
  let large = Pipeline.static_cycles (Kernels.fib ~n:50 ()) in
  Alcotest.(check bool) "more iterations cost more" true (large > small *. 2.0)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "optim.spill-critical",
      [
        tc "semantics" `Quick test_spill_critical_semantics;
        tc "zero budget" `Quick test_spill_critical_zero_budget;
      ] );
    ( "optim.split-ranges",
      [
        tc "semantics" `Quick test_split_semantics;
        tc "copies inserted" `Quick test_split_inserts_copies_in_read_only_blocks;
        tc "skips defining blocks" `Quick test_split_skips_defining_blocks;
        tc "spreads allocation" `Quick test_split_spreads_allocation;
      ] );
    ( "optim.schedule",
      [
        tc "semantics" `Quick test_schedule_semantics;
        tc "reduces back-to-back" `Quick test_schedule_reduces_back_to_back;
        tc "keeps instruction multiset" `Quick test_schedule_keeps_instruction_multiset;
        tc "memory order" `Quick test_schedule_respects_memory_order;
      ] );
    ( "optim.promote",
      [
        tc "scale kernel" `Quick test_promote_scale;
        tc "no false positive" `Quick test_promote_no_false_positive;
        tc "semantics (all kernels)" `Quick test_promote_semantics_all_kernels;
      ] );
    ( "optim.nop-insert",
      [
        tc "counts" `Quick test_nop_insert_counts;
        tc "selective" `Quick test_nop_insert_selective;
        tc "none" `Quick test_nop_insert_none;
      ] );
    ( "optim.cleanup",
      [
        tc "dce removes dead code" `Quick test_dce_removes_dead_code;
        tc "dce keeps side effects" `Quick test_dce_keeps_side_effects;
        tc "dce semantics (all kernels)" `Quick test_dce_all_kernels_semantics;
        tc "copy prop rewrites" `Quick test_copy_prop_rewrites;
        tc "copy prop redefinition barrier" `Quick
          test_copy_prop_stops_at_redefinition;
        tc "constant folding" `Quick test_constant_folding_folds;
        tc "folding kills branch" `Quick test_constant_folding_kills_branch;
        tc "lvn eliminates recomputation" `Quick test_lvn_eliminates_recomputation;
        tc "lvn respects redefinition" `Quick test_lvn_respects_redefinition;
        tc "lvn accumulator regression" `Quick test_lvn_accumulator_not_numbered;
        tc "lvn semantics (all kernels)" `Quick test_lvn_semantics_all_kernels;
        tc "run_all semantics" `Quick test_cleanup_run_all_semantics;
        tc "cleanup after split" `Quick test_cleanup_after_split_removes_dead_moves;
      ] );
    ( "optim.strength",
      [
        tc "mul to shift" `Quick test_strength_mul_to_shift;
        tc "identities" `Quick test_strength_identities;
        tc "no false rewrites" `Quick test_strength_no_false_rewrites;
        tc "semantics (all kernels)" `Quick test_strength_semantics_all_kernels;
      ] );
    ( "optim.unroll",
      [
        tc "factor 1 identity" `Quick test_unroll_identity_factor_one;
        tc "semantics and speed" `Quick test_unroll_semantics_and_speed;
        tc "skips non-divisible" `Quick test_unroll_skips_nondivisible;
        tc "rejects bad factor" `Quick test_unroll_rejects_bad_factor;
        tc "semantics (all kernels)" `Quick test_unroll_all_kernels_semantics;
      ] );
    ( "optim.compile",
      [
        tc "semantics" `Quick test_compile_preserves_semantics;
        tc "cools vs first-fit" `Quick test_compile_cools_vs_first_fit;
        tc "reports steps" `Quick test_compile_reports_steps;
        tc "options toggle" `Quick test_compile_options_toggle;
        tc "cooling nops" `Quick test_compile_with_nops_cools_more;
      ] );
    ( "optim.pipeline",
      [
        tc "accounting" `Quick test_pipeline_accounting;
        tc "static cycles weighted" `Quick test_pipeline_static_cycles_weighted;
      ] );
  ]
