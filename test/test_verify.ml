(* The verifier, the fault injector that falsifies it, the checked
   pipeline policies, and the divergence-recovery ladder. *)

open Tdfa_ir
open Tdfa_verify
open Tdfa_regalloc
open Tdfa_workload

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

let func_of src = Parser.parse_func src

let has_rule r ds = List.exists (fun d -> d.Check.rule = r) ds

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

(* --- Check: structural rules -------------------------------------------- *)

let test_clean_kernels () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list string))
        (name ^ " verifies clean") []
        (List.map Check.to_string (Check.func f)))
    Kernels.all

let test_dangling_target () =
  let f =
    func_of "func @f() {\nentry:\n  %a = const 1\n  jmp missing\n}"
  in
  let ds = Check.cfg f in
  Alcotest.(check bool) "cfg rule fires" true (has_rule "cfg" ds);
  Alcotest.(check int) "one violation" 1 (List.length ds)

let test_unreachable_block () =
  let f =
    func_of
      "func @f() {\nentry:\n  ret\nisland:\n  %a = const 1\n  ret\n}"
  in
  Alcotest.(check bool) "cfg rule fires" true (has_rule "cfg" (Check.cfg f))

let test_use_never_defined () =
  let f =
    func_of "func @f() {\nentry:\n  %a = add %b, %b\n  ret %a\n}"
  in
  let ds = Check.defs_dominate_uses f in
  Alcotest.(check bool) "use-undef fires" true (has_rule "use-undef" ds);
  Alcotest.(check bool) "message says never defined" true
    (List.exists
       (fun d ->
         d.Check.index = Some 0
         && contains ~affix:"is never defined" d.Check.violation)
       ds)

let test_use_not_on_every_path () =
  (* %x is defined on the then-arm only; the join reads it. *)
  let f =
    func_of
      "func @f(%c) {\n\
       entry:\n\
       \  br %c, then, join\n\
       then:\n\
       \  %x = const 1\n\
       \  jmp join\n\
       join:\n\
       \  %y = mov %x\n\
       \  ret %y\n\
       }"
  in
  let ds = Check.defs_dominate_uses f in
  Alcotest.(check bool) "use-undef fires" true (has_rule "use-undef" ds);
  Alcotest.(check bool) "message mentions the partial path" true
    (List.exists
       (fun d -> contains ~affix:"not defined on every path" d.Check.violation)
       ds)

let test_all_paths_def_is_clean () =
  (* Defined on both arms: definite assignment must accept the join. *)
  let f =
    func_of
      "func @f(%c) {\n\
       entry:\n\
       \  br %c, then, else\n\
       then:\n\
       \  %x = const 1\n\
       \  jmp join\n\
       else:\n\
       \  %x = const 2\n\
       \  jmp join\n\
       join:\n\
       \  ret %x\n\
       }"
  in
  Alcotest.(check (list string))
    "clean" []
    (List.map Check.to_string (Check.defs_dominate_uses f))

let test_spill_slot_unbalanced () =
  let f =
    func_of
      (Printf.sprintf
         "func @f() {\n\
          entry:\n\
          \  %%b = const %d\n\
          \  %%v = load %%b, 3\n\
          \  ret %%v\n\
          }"
         Spill.base_address)
  in
  let ds = Check.spill_slots f in
  Alcotest.(check bool) "spill-slot fires" true (has_rule "spill-slot" ds)

let test_spill_roundtrip_is_balanced () =
  let f = Kernels.fib ~n:10 () in
  let spilled =
    Var.Set.filter
      (fun v -> not (List.exists (Var.equal v) f.Func.params))
      (Func.defined_vars f)
  in
  let f' = Spill.rewrite f spilled in
  Alcotest.(check bool) "something was spilled" true
    (not (Var.Set.is_empty spilled));
  Alcotest.(check (list string))
    "balanced" []
    (List.map Check.to_string (Check.spill_slots f'))

(* --- Check: post-allocation consistency --------------------------------- *)

let test_allocation_clean_and_clobbered () =
  let f = Option.get (Kernels.find "fir") in
  let alloc = Alloc.allocate f layout ~policy:Policy.First_fit in
  let clean =
    Check.allocation ~layout alloc.Alloc.func alloc.Alloc.assignment
  in
  Alcotest.(check (list string))
    "clean allocation" [] (List.map Check.to_string clean);
  match
    Fault.inject ~seed:7 ~kind:Fault.Clobber_register
      ~assignment:alloc.Alloc.assignment alloc.Alloc.func
  with
  | None -> Alcotest.fail "no clobber site on fir"
  | Some m ->
    let ds =
      Check.allocation ~layout alloc.Alloc.func (Option.get m.Fault.assignment)
    in
    Alcotest.(check bool) "reg-alloc fires" true (has_rule "reg-alloc" ds)

let test_allocation_out_of_range () =
  let f = func_of "func @f() {\nentry:\n  %a = const 1\n  ret %a\n}" in
  let a = Assignment.add Assignment.empty (Var.of_string "a") 4096 in
  let ds = Check.allocation ~layout f a in
  Alcotest.(check bool) "out-of-range cell flagged" true
    (has_rule "reg-alloc" ds)

(* --- Check: VLIW bundle legality ----------------------------------------- *)

let test_bundles_legal_and_corrupted () =
  let f = Option.get (Kernels.find "idct_row") in
  let sched = Tdfa_vliw.Bundler.schedule_func ~width:4 f in
  Alcotest.(check (list string))
    "bundler output is legal" []
    (List.map Check.to_string (Check.bundles ~width:4 f sched));
  (* Reversing a block's bundles breaks the dependence direction. *)
  let corrupted =
    List.map
      (fun (l, bs) -> if List.length bs > 1 then (l, List.rev bs) else (l, bs))
      sched
  in
  Alcotest.(check bool) "reversed bundles flagged" true
    (has_rule "vliw" (Check.bundles ~width:4 f corrupted));
  (* A bundle wider than the machine is flagged. *)
  let overwide =
    List.map (fun (l, bs) -> (l, [ List.concat bs ])) sched
  in
  Alcotest.(check bool) "overwide bundle flagged" true
    (List.length (List.concat_map snd sched) > 0
     && has_rule "vliw" (Check.bundles ~width:1 f overwide))

(* --- Check: thermal state ------------------------------------------------ *)

let test_thermal_state_faults () =
  let module T = Tdfa_core.Thermal_state in
  let s = T.create layout ~granularity:2 ~ambient_k:300.0 in
  Alcotest.(check (list string))
    "ambient state clean" []
    (List.map Check.to_string (Check.thermal_state s));
  let nan_state, p = Fault.inject_state ~seed:3 ~kind:Fault.Nan s in
  let ds = Check.thermal_state nan_state in
  Alcotest.(check bool) "NaN caught" true (has_rule "thermal" ds);
  Alcotest.(check bool) "poisoned point named" true
    (List.exists (fun d -> d.Check.index = Some p) ds);
  let inf_state, _ = Fault.inject_state ~seed:3 ~kind:Fault.Inf s in
  Alcotest.(check bool) "Inf caught" true
    (has_rule "thermal" (Check.thermal_state inf_state))

(* --- Fault injection on the built-in kernels ----------------------------- *)

(* Acceptance: every fault class injected on the built-in kernels is
   detected by the verifier. *)
let test_faults_on_kernels_all_detected () =
  let injected = Hashtbl.create 4 in
  List.iter
    (fun (name, f) ->
      let alloc = Alloc.allocate f layout ~policy:Policy.First_fit in
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              match
                Fault.inject ~seed ~kind ~assignment:alloc.Alloc.assignment
                  (match kind with
                  | Fault.Clobber_register -> alloc.Alloc.func
                  | _ -> f)
              with
              | None -> ()
              | Some m ->
                Hashtbl.replace injected kind ();
                let ds =
                  match m.Fault.assignment with
                  | Some a -> Check.all ~layout ~assignment:a m.Fault.func
                  | None -> Check.func m.Fault.func
                in
                if ds = [] then
                  Alcotest.failf "%s fault on %s undetected (%s)"
                    (Fault.kind_name kind) name m.Fault.description)
            [ 1; 2; 3 ])
        Fault.all_kinds)
    Kernels.all;
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Fault.kind_name kind ^ " injected somewhere") true
        (Hashtbl.mem injected kind))
    Fault.all_kinds

let test_fault_deterministic () =
  let f = Option.get (Kernels.find "crc") in
  let d1 = Fault.inject ~seed:5 ~kind:Fault.Drop_def f in
  let d2 = Fault.inject ~seed:5 ~kind:Fault.Drop_def f in
  Alcotest.(check bool) "same seed, same mutant" true
    (Option.map (fun m -> m.Fault.description) d1
     = Option.map (fun m -> m.Fault.description) d2)

(* --- Checked pipeline policies ------------------------------------------- *)

let corrupting_pass f =
  match Fault.inject ~seed:1 ~kind:Fault.Drop_def f with
  | Some m -> m.Fault.func
  | None -> Alcotest.fail "no drop-def site"

let test_pipeline_degrade () =
  let f = Kernels.fib ~n:10 () in
  let module P = Tdfa_optim.Pipeline in
  let t = P.start f in
  let t =
    P.apply ~checks:(P.checks P.Degrade) t ~name:"bad" ~detail:""
      corrupting_pass
  in
  Alcotest.(check bool) "pre-pass IR kept" true (t.P.func == f);
  Alcotest.(check (list string)) "skip logged" [ "bad" ] (P.skipped_passes t);
  let last = List.nth t.P.steps (List.length t.P.steps - 1) in
  Alcotest.(check bool) "diagnostics recorded" true
    (last.P.diagnostics <> [] && last.P.status = P.Skipped)

let test_pipeline_warn () =
  let f = Kernels.fib ~n:10 () in
  let module P = Tdfa_optim.Pipeline in
  let t =
    P.apply ~checks:(P.checks P.Warn) (P.start f) ~name:"bad" ~detail:""
      corrupting_pass
  in
  Alcotest.(check bool) "corrupt output kept" true (t.P.func != f);
  let last = List.nth t.P.steps (List.length t.P.steps - 1) in
  Alcotest.(check bool) "warned" true (last.P.status = P.Warned)

let test_pipeline_fail () =
  let f = Kernels.fib ~n:10 () in
  let module P = Tdfa_optim.Pipeline in
  match
    P.apply ~checks:(P.checks P.Fail) (P.start f) ~name:"bad" ~detail:""
      corrupting_pass
  with
  | _ -> Alcotest.fail "expected Verification_failed"
  | exception P.Verification_failed { pass; diagnostics } ->
    Alcotest.(check string) "failing pass named" "bad" pass;
    Alcotest.(check bool) "diagnostics carried" true (diagnostics <> [])

let test_checked_compile_completes () =
  let module P = Tdfa_optim.Pipeline in
  List.iter
    (fun (name, f) ->
      let options =
        { Tdfa_optim.Compile.default_options with
          Tdfa_optim.Compile.checks = Some (P.checks P.Degrade);
        }
      in
      let r = Tdfa_optim.Compile.run ~options ~layout f in
      Alcotest.(check bool)
        (name ^ " checked compile verifies clean") true
        (List.for_all (fun (s : P.step) -> s.P.status <> P.Warned) r.Tdfa_optim.Compile.steps))
    Kernels.all

(* --- Divergence recovery -------------------------------------------------- *)

let recovery_with max_iterations =
  let f = Kernels.fib ~n:10 () in
  let alloc = Alloc.allocate f layout ~policy:Policy.First_fit in
  let settings =
    { Tdfa_core.Analysis.default_settings with
      Tdfa_core.Analysis.max_iterations;
    }
  in
  let d = Tdfa.Driver.default ~layout in
  let r =
    Tdfa.Driver.run
      { d with Tdfa.Driver.settings; recover = true }
      (Tdfa.Driver.Assigned (alloc.Alloc.func, alloc.Alloc.assignment))
  in
  Option.get r.recovery

let test_recovery_not_needed () =
  let module A = Tdfa_core.Analysis in
  let r = recovery_with 200 in
  Alcotest.(check bool) "primary converges" true
    (r.A.used = A.Primary && A.converged r.A.outcome);
  Alcotest.(check int) "one attempt" 1 (List.length r.A.attempts)

let test_recovery_average_join () =
  let module A = Tdfa_core.Analysis in
  (* fib needs ~40 Max-join iterations at granularity 1: capping at 10
     diverges the primary run, and the Average join converges. *)
  let r = recovery_with 10 in
  Alcotest.(check bool) "average join converges" true
    (r.A.used = A.Average_join && A.converged r.A.outcome);
  match r.A.attempts with
  | [ p; a ] ->
    Alcotest.(check bool) "primary diverged first" true
      ((not p.A.converged) && p.A.fallback = A.Primary);
    Alcotest.(check bool) "average attempt converged" true a.A.converged
  | _ -> Alcotest.fail "expected exactly two attempts"

let test_recovery_coarser_granularity () =
  let module A = Tdfa_core.Analysis in
  (* At 5 iterations even the Average join diverges at granularity 1;
     the coarser 2x2-cell points converge. *)
  let r = recovery_with 5 in
  Alcotest.(check bool) "coarser granularity converges" true
    (r.A.used = A.Coarser 2 && A.converged r.A.outcome);
  Alcotest.(check int) "three attempts" 3 (List.length r.A.attempts)

let test_recovery_exhausted () =
  let module A = Tdfa_core.Analysis in
  let r = recovery_with 1 in
  Alcotest.(check bool) "nothing converges" true
    ((not (A.converged r.A.outcome)) && r.A.used = A.Primary);
  Alcotest.(check int) "whole ladder tried" 4 (List.length r.A.attempts);
  Alcotest.(check bool) "all attempts diverged" true
    (List.for_all (fun (a : A.attempt) -> not a.A.converged) r.A.attempts)

(* --- Properties ----------------------------------------------------------- *)

let gen_program =
  QCheck2.Gen.(
    map
      (fun (seed, pool, depth) ->
        Generator.generate
          { Generator.default with Generator.seed; pool; depth })
      (triple (int_range 1 10_000) (int_range 2 20) (int_range 0 2)))

let observe f =
  let o = Tdfa_exec.Interp.run_func ~fuel:5_000_000 f in
  ( o.Tdfa_exec.Interp.return_value,
    List.filter
      (fun (a, _) -> a < Spill.base_address)
      o.Tdfa_exec.Interp.memory )

let prop_faults_caught_or_preserving =
  QCheck2.Test.make
    ~name:"every injected fault is caught or semantics-preserving" ~count:40
    QCheck2.Gen.(pair gen_program (int_range 0 1_000_000))
    (fun (f, seed) ->
      List.for_all
        (fun kind ->
          match Fault.inject ~seed ~kind f with
          | None -> true
          | Some m -> (
            Check.func m.Fault.func <> []
            ||
            match observe m.Fault.func = observe f with
            | eq -> eq
            | exception Tdfa_exec.Interp.Runtime_error _ -> false
            | exception Tdfa_exec.Interp.Out_of_fuel _ -> false))
        [ Fault.Drop_def; Fault.Retarget_branch; Fault.Swap_operands ])

let prop_clobber_always_caught =
  QCheck2.Test.make
    ~name:"clobbered register assignments never verify" ~count:25
    QCheck2.Gen.(pair gen_program (int_range 0 1_000_000))
    (fun (f, seed) ->
      let alloc = Alloc.allocate f layout ~policy:Policy.First_fit in
      match
        Fault.inject ~seed ~kind:Fault.Clobber_register
          ~assignment:alloc.Alloc.assignment alloc.Alloc.func
      with
      | None -> true
      | Some m ->
        Check.allocation ~layout alloc.Alloc.func
          (Option.get m.Fault.assignment)
        <> [])

let prop_degrade_preserves_semantics =
  QCheck2.Test.make
    ~name:"degraded pipeline preserves semantics despite a corrupting pass"
    ~count:25 gen_program (fun f ->
      let module P = Tdfa_optim.Pipeline in
      let checks = P.checks P.Degrade in
      let t = P.start f in
      let t =
        P.apply ~checks t ~name:"corrupt" ~detail:"" (fun f ->
            match Fault.inject ~seed:11 ~kind:Fault.Drop_def f with
            | Some m -> m.Fault.func
            | None -> f)
      in
      let t =
        P.apply ~checks t ~name:"cleanup" ~detail:"" Tdfa_optim.Cleanup.run_all
      in
      observe t.P.func = observe f)

(* --- Bitset checks == their set-based references ---------------------------- *)

(* The shapes of the regalloc battery (more than 63 and 126 variables,
   unreachable blocks, parameter-only and empty bodies) and, for each,
   its mutants under the faults that leave a use undefined or a branch
   dangling. *)
let gen_checked =
  QCheck2.Gen.(
    map
      (fun (f, seed) ->
        f
        :: List.filter_map
             (fun kind ->
               Option.map
                 (fun m -> m.Fault.func)
                 (Fault.inject ~seed ~kind f))
             [ Fault.Drop_def; Fault.Retarget_branch; Fault.Swap_operands ])
      (pair Func_shapes.gen (int_range 0 1_000_000)))

let strings ds = List.map Check.to_string ds

let prop_defs_dominate_uses_matches_reference =
  QCheck2.Test.make ~name:"definite assignment == Var.Set reference"
    ~count:200
    ~print:(fun fs -> String.concat "\n" (List.map Func_shapes.print fs))
    gen_checked
    (fun fs ->
      List.for_all
        (fun f ->
          let ds = Check.defs_dominate_uses f in
          ds = Verify_reference.defs_dominate_uses f
          && List.equal String.equal (strings ds)
               (strings (Verify_reference.defs_dominate_uses f)))
        fs)

(* Allocations of the battery's shapes, then the same with clobbered
   cells and with every variable squeezed into four cells (collisions
   everywhere, some cells outside a 1x2 layout). *)
let prop_allocation_matches_reference =
  QCheck2.Test.make ~name:"allocation check == per-instruction reference"
    ~count:100
    ~print:(fun (f, seed) -> Printf.sprintf "%s\nseed %d" (Func_shapes.print f) seed)
    (QCheck2.Gen.pair Func_shapes.narrow (QCheck2.Gen.int_range 0 1_000_000))
    (fun (f, seed) ->
      match Alloc.allocate f layout ~policy:Policy.First_fit with
      | exception Failure _ -> true
      | r ->
        let f = r.Alloc.func in
        let squeezed =
          Assignment.of_bindings
            (List.map (fun (v, c) -> (v, c mod 4))
               (Assignment.bindings r.Alloc.assignment))
        in
        let clobbered =
          match
            Fault.inject ~seed ~kind:Fault.Clobber_register
              ~assignment:r.Alloc.assignment f
          with
          | Some m -> Option.to_list m.Fault.assignment
          | None -> []
        in
        List.for_all
          (fun (layout, a) ->
            strings (Check.allocation ~layout f a)
            = strings (Verify_reference.allocation ~layout f a))
          ([ (layout, r.Alloc.assignment); (layout, squeezed);
             (Tdfa_floorplan.Layout.make ~rows:1 ~cols:2 (), squeezed) ]
          @ List.map (fun a -> (layout, a)) clobbered))

let suite =
  [
    ( "verify",
      [
        Alcotest.test_case "built-in kernels verify clean" `Quick
          test_clean_kernels;
        Alcotest.test_case "dangling branch target" `Quick test_dangling_target;
        Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
        Alcotest.test_case "use of never-defined variable" `Quick
          test_use_never_defined;
        Alcotest.test_case "use not defined on every path" `Quick
          test_use_not_on_every_path;
        Alcotest.test_case "all-paths definition accepted" `Quick
          test_all_paths_def_is_clean;
        Alcotest.test_case "unbalanced spill slot" `Quick
          test_spill_slot_unbalanced;
        Alcotest.test_case "spill rewrite is balanced" `Quick
          test_spill_roundtrip_is_balanced;
        Alcotest.test_case "allocation clean vs clobbered" `Quick
          test_allocation_clean_and_clobbered;
        Alcotest.test_case "allocation cell out of range" `Quick
          test_allocation_out_of_range;
        Alcotest.test_case "VLIW bundle legality" `Quick
          test_bundles_legal_and_corrupted;
        Alcotest.test_case "thermal NaN/Inf injection caught" `Quick
          test_thermal_state_faults;
        Alcotest.test_case "all fault classes detected on kernels" `Quick
          test_faults_on_kernels_all_detected;
        Alcotest.test_case "fault injection is deterministic" `Quick
          test_fault_deterministic;
        Alcotest.test_case "pipeline degrade skips corrupt pass" `Quick
          test_pipeline_degrade;
        Alcotest.test_case "pipeline warn keeps corrupt pass" `Quick
          test_pipeline_warn;
        Alcotest.test_case "pipeline fail raises" `Quick test_pipeline_fail;
        Alcotest.test_case "checked compile completes on all kernels" `Quick
          test_checked_compile_completes;
        Alcotest.test_case "recovery: primary suffices" `Quick
          test_recovery_not_needed;
        Alcotest.test_case "recovery: average join rung" `Quick
          test_recovery_average_join;
        Alcotest.test_case "recovery: coarser granularity rung" `Quick
          test_recovery_coarser_granularity;
        Alcotest.test_case "recovery: ladder exhausted" `Quick
          test_recovery_exhausted;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_faults_caught_or_preserving;
            prop_clobber_always_caught;
            prop_degrade_preserves_semantics;
            prop_defs_dominate_uses_matches_reference;
            prop_allocation_matches_reference;
          ] );
  ]
