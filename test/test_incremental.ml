(* The differential battery for incremental re-analysis: a re-analysis
   with a prior must be bit-identical to a cold fixpoint (fingerprints
   over every per-instruction thermal point, zero tolerance), an
   unchanged function must be answered without iterating, a corrupted
   prior must be caught, the block hasher must be position-independent
   and edit-sensitive, and every optimisation pass the loop re-analyses
   after must itself preserve interpreter-observable semantics. *)

open Tdfa_ir
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_obs

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

(* Coarser + looser than the defaults so a property case costs
   milliseconds; the cram suite covers the default configuration. *)
let settings =
  {
    Analysis.default_settings with
    Analysis.delta_k = 0.1;
    max_iterations = 100;
  }

let config_of ?(granularity = 2) func assignment =
  Tdfa.Driver.transfer_config
    { (Tdfa.Driver.default ~layout) with Tdfa.Driver.granularity }
    func assignment

let post_ra f =
  let a = Alloc.allocate f layout ~policy:Policy.First_fit in
  (a.Alloc.func, a.Alloc.assignment)

let fingerprint = Tdfa_engine.Engine.fingerprint
let gen_small = Generator.gen_func ~max_pool:10 ~max_depth:1 ~max_length:6 ()

let gen_program =
  QCheck2.Gen.(
    map
      (fun (seed, pool, depth) ->
        Generator.generate
          { Generator.default with Generator.seed; pool; depth })
      (triple (int_range 1 10_000) (int_range 2 20) (int_range 0 2)))

(* Every Tdfa_optim pass the optimize→analyze loop can interleave with
   re-analyses. Each entry is a deterministic single-pass edit. *)
let passes =
  [
    ("promote", fun f -> fst (Tdfa_optim.Promote.apply f));
    ( "split_ranges",
      fun f ->
        let vars =
          Var.Set.elements (Func.defined_vars f)
          |> List.filteri (fun i _ -> i mod 3 = 0)
        in
        fst (Tdfa_optim.Split_ranges.apply f ~vars) );
    ( "spill_critical",
      fun f ->
        let critical =
          Var.Set.elements (Func.defined_vars f)
          |> List.filter (fun v ->
              not (List.exists (Var.equal v) f.Func.params))
          |> List.filteri (fun i _ -> i < 2)
        in
        fst (Tdfa_optim.Spill_critical.apply f ~critical ~max_spills:2) );
    ( "nop_insert",
      fun f ->
        fst
          (Tdfa_optim.Nop_insert.apply f
             ~hot_after:(fun l i ->
               (Hashtbl.hash (Label.to_string l) + i) mod 5 = 0)
             ~nops:1) );
    ( "schedule",
      fun f ->
        fst
          (Tdfa_optim.Schedule.apply f
             ~cell_of_var:(fun v ->
               Some (Hashtbl.hash (Var.to_string v) mod 64))
             ~is_hot_cell:(fun c -> c mod 7 = 0)) );
    ("strength", fun f -> fst (Tdfa_optim.Strength.apply f));
    ("unroll", fun f -> fst (Tdfa_optim.Unroll.apply f ~factor:2));
    ("cleanup", Tdfa_optim.Cleanup.run_all);
  ]

(* --- Block-diff hasher units ---------------------------------------------- *)

(* A three-block function with a loop; the signature tests edit it one
   feature at a time under one shared assignment. *)
let sig_base =
  "func @sig() {\nentry:\n  %a = const 1\n  %b = add %a, %a\n  jmp loop\n\
   loop:\n  %c = add %b, %a\n  br %c, loop, done\ndone:\n  ret %a\n}"

let sig_instr_edit =
  "func @sig() {\nentry:\n  %a = const 1\n  %b = mul %a, %a\n  jmp loop\n\
   loop:\n  %c = add %b, %a\n  br %c, loop, done\ndone:\n  ret %a\n}"

let sig_succ_edit =
  "func @sig() {\nentry:\n  %a = const 1\n  %b = add %a, %a\n  jmp loop\n\
   loop:\n  %c = add %b, %a\n  br %c, done, done\ndone:\n  ret %a\n}"

let sig_extra_block =
  "func @sig() {\nentry:\n  %a = const 1\n  %b = add %a, %a\n  jmp loop\n\
   loop:\n  %c = add %b, %a\n  br %c, loop, extra\nextra:\n  jmp done\n\
   done:\n  ret %a\n}"

let sigs_of f assignment =
  Incremental.func_signature (config_of f assignment) f

let test_signature_permutation_invariant () =
  let f, asg = post_ra (Kernels.fir ()) in
  let permuted =
    match f.Func.blocks with
    | entry :: rest ->
      Func.make ~name:f.Func.name ~params:f.Func.params
        (entry :: List.rev rest)
    | [] -> f
  in
  Alcotest.(check bool) "fir has several blocks" true
    (List.length f.Func.blocks > 2);
  Alcotest.(check bool) "permuted-but-equal blocks hash equal" true
    (Label.Map.equal String.equal (sigs_of f asg) (sigs_of permuted asg))

let check_edit_flips ~edited variant =
  let base = Parser.parse_func sig_base in
  let f' = Parser.parse_func variant in
  let asg = Placement.predict base layout in
  let s0 = sigs_of base asg and s1 = sigs_of f' asg in
  Label.Map.iter
    (fun l d0 ->
      let d1 = Label.Map.find l s1 in
      if String.equal (Label.to_string l) edited then
        Alcotest.(check bool)
          (edited ^ " signature flips") false (String.equal d0 d1)
      else
        Alcotest.(check string)
          (Label.to_string l ^ " signature stable") d0 d1)
    s0

let test_signature_instr_edit () = check_edit_flips ~edited:"entry" sig_instr_edit
let test_signature_succ_edit () = check_edit_flips ~edited:"loop" sig_succ_edit

(* --- The differential property -------------------------------------------- *)

let print_case (f, i) =
  Printf.sprintf "pass %s on:\n%s"
    (fst (List.nth passes (i mod List.length passes)))
    (Printer.func_to_string f)

(* For every pass applied to a random function, warm-start re-analysis
   from the pre-edit recording is EXACTLY the cold fixpoint on the
   edited function: same fingerprint over every thermal point, same
   iteration count, same final delta — no tolerance. *)
let prop_warm_equals_cold =
  QCheck2.Test.make
    ~name:"incremental: warm == cold fingerprint for every pass" ~count:160
    ~print:print_case
    QCheck2.Gen.(pair gen_small (int_range 0 (List.length passes - 1)))
    (fun (f, i) ->
      let _, pass = List.nth passes i in
      let af, asg = post_ra f in
      let r0 = Incremental.analyze ~settings (config_of af asg) af in
      let f' = pass af in
      let cfg' = config_of f' asg in
      let warm =
        Incremental.analyze ~settings ~prior:r0.Incremental.prior cfg' f'
      in
      let cold = Analysis.fixpoint ~settings cfg' f' in
      let wi = Analysis.info warm.Incremental.outcome
      and ci = Analysis.info cold in
      String.equal (fingerprint warm.Incremental.outcome) (fingerprint cold)
      && wi.Analysis.iterations = ci.Analysis.iterations
      && Int64.equal
           (Int64.bits_of_float wi.Analysis.final_delta_k)
           (Int64.bits_of_float ci.Analysis.final_delta_k))

(* Chained edits: priors produced by warm runs seed further warm runs
   without drift (the optimize loop's actual usage pattern). *)
let prop_chained_warm_equals_cold =
  QCheck2.Test.make
    ~name:"incremental: chained warm re-analyses stay exact" ~count:60
    ~print:print_case
    QCheck2.Gen.(pair gen_small (int_range 0 (List.length passes - 1)))
    (fun (f, i) ->
      let af, asg = post_ra f in
      let r = ref (Incremental.analyze ~settings (config_of af asg) af) in
      let func = ref af in
      let ok = ref true in
      List.iteri
        (fun j (_, pass) ->
          if !ok && (i + j) mod 3 = 0 then begin
            func := pass !func;
            let cfg' = config_of !func asg in
            let warm =
              Incremental.analyze ~settings ~prior:!r.Incremental.prior cfg'
                !func
            in
            let cold = Analysis.fixpoint ~settings cfg' !func in
            ok := String.equal (fingerprint warm.Incremental.outcome)
                (fingerprint cold);
            r := warm
          end)
        passes;
      !ok)

(* --- The outcome digest -------------------------------------------------- *)

let with_info outcome info =
  match outcome with
  | Analysis.Converged _ -> Analysis.Converged info
  | Analysis.Diverged _ -> Analysis.Diverged info

(* A copy of [a] with one bit of one value flipped. *)
let flip_bit a ~at ~bit =
  let a = Array.copy a in
  a.(at) <-
    Int64.float_of_bits
      (Int64.logxor (Int64.bits_of_float a.(at)) (Int64.shift_left 1L bit));
  a

(* The fingerprint covers every result field: one flipped bit anywhere
   moves it. *)
let prop_fingerprint_covers_outcome =
  QCheck2.Test.make
    ~name:"content: one flipped bit moves the fingerprint"
    ~count:60
    QCheck2.Gen.(triple gen_small (int_range 0 1_000_000) (int_range 0 63))
    (fun (f, seed, bit) ->
      let af, asg = post_ra f in
      let outcome = Analysis.fixpoint ~settings (config_of af asg) af in
      let info = Analysis.info outcome in
      let base = fingerprint outcome in
      let moved info' =
        not (String.equal base (fingerprint (with_info outcome info')))
      in
      let states_moves =
        match info.Analysis.states with
        | [||] -> true
        | a ->
          moved
            {
              info with
              Analysis.states =
                flip_bit a ~at:(seed mod Array.length a) ~bit;
            }
      in
      let exit_moves =
        let a = info.Analysis.exits in
        moved
          {
            info with
            Analysis.exits = flip_bit a ~at:(seed mod Array.length a) ~bit;
          }
      in
      let unstable_moves =
        moved
          {
            info with
            Analysis.unstable =
              (match info.Analysis.unstable with
               | [] -> [ (Func.entry_label af, 0) ]
               | (l, i) :: rest -> (l, i lxor 1) :: rest);
          }
      in
      let iterations_moves =
        moved
          {
            info with
            Analysis.iterations =
              info.Analysis.iterations lxor (1 lsl (bit mod 20));
          }
      in
      let converged_moves =
        let flipped =
          match outcome with
          | Analysis.Converged i -> Analysis.Diverged i
          | Analysis.Diverged i -> Analysis.Converged i
        in
        not (String.equal base (fingerprint flipped))
      in
      states_moves && exit_moves && unstable_moves && iterations_moves
      && converged_moves)

(* The integrity digest covers exit states too: a block's exit state
   mutated in place through the returned outcome (which is the prior's
   own result) is caught, and the next request runs cold. *)
let test_poisoned_exit_state () =
  let af, asg = post_ra (Kernels.fir ()) in
  let cfg = config_of af asg in
  let r0 = Incremental.analyze ~settings cfg af in
  Alcotest.(check bool) "fresh prior intact" true
    (Incremental.prior_intact r0.Incremental.prior);
  let info = Analysis.info r0.Incremental.outcome in
  let exits = info.Analysis.exits in
  exits.(0) <- exits.(0) +. 1.0;
  Alcotest.(check bool) "poisoned exit state rejected" false
    (Incremental.prior_intact r0.Incremental.prior);
  let r1 = Incremental.analyze ~settings ~prior:r0.Incremental.prior cfg af in
  Alcotest.(check string) "falls back" "fallback:corrupt-recording"
    (Incremental.mode_name r1.Incremental.mode)

(* A prior whose result was corrupted after the fact (bit rot, fault
   injection, a torn hand-off) must never be returned: the integrity
   digest sends the run cold, and the result fingerprints identically
   to an analysis that was never warmed at all. Same for a prior made
   under different solver settings, which misses the key. *)
let prop_corrupt_or_mismatched_prior_goes_cold =
  QCheck2.Test.make
    ~name:"incremental: corrupt/mismatched prior falls back to the cold oracle"
    ~count:80
    QCheck2.Gen.(triple gen_small (int_range 0 1_000_000) bool)
    (fun (f, seed, corrupt) ->
      let af, asg = post_ra f in
      let cfg = config_of af asg in
      let r0 = Incremental.analyze ~settings cfg af in
      let prior, settings', expected_reason =
        if corrupt then
          ( Incremental.poison_prior ~seed r0.Incremental.prior,
            settings,
            Incremental.Corrupt_recording )
        else
          ( r0.Incremental.prior,
            { settings with Analysis.delta_k = settings.Analysis.delta_k /. 2.0 },
            Incremental.Cold )
      in
      ((not corrupt) || not (Incremental.prior_intact prior))
      &&
      let warm =
        Incremental.analyze ~settings:settings' ~prior cfg af
      in
      let never_warmed = Analysis.fixpoint ~settings:settings' cfg af in
      warm.Incremental.mode = expected_reason
      && String.equal
           (fingerprint warm.Incremental.outcome)
           (fingerprint never_warmed))

(* --- Semantic preservation of every pass ---------------------------------- *)

let observe f =
  let o = Tdfa_exec.Interp.run_func ~fuel:5_000_000 f in
  ( o.Tdfa_exec.Interp.return_value,
    List.filter
      (fun (a, _) -> a < Spill.base_address)
      o.Tdfa_exec.Interp.memory )

let prop_passes_preserve_semantics =
  QCheck2.Test.make
    ~name:"incremental battery: every optim pass preserves semantics"
    ~count:160 ~print:print_case
    QCheck2.Gen.(pair gen_program (int_range 0 (List.length passes - 1)))
    (fun (f, i) ->
      let _, pass = List.nth passes i in
      observe f = observe (pass f))

(* --- Modes, the identity contract, telemetry ------------------------------ *)

let mode r = Incremental.mode_name r.Incremental.mode

let test_modes () =
  let af, asg = post_ra (Kernels.fir ()) in
  let cfg = config_of af asg in
  let r0 = Incremental.analyze ~settings cfg af in
  Alcotest.(check string) "no prior = cold" "cold" (mode r0);
  let r1 =
    Incremental.analyze ~settings ~prior:r0.Incremental.prior cfg af
  in
  Alcotest.(check string) "unchanged = identity" "identity" (mode r1);
  Alcotest.(check string) "identity returns the prior's fingerprint"
    (fingerprint r0.Incremental.outcome)
    (fingerprint r1.Incremental.outcome);
  let edited =
    fst (Tdfa_optim.Nop_insert.apply af ~hot_after:(fun _ i -> i = 0) ~nops:1)
  in
  let r2 =
    Incremental.analyze ~settings ~prior:r1.Incremental.prior
      (config_of edited asg) edited
  in
  Alcotest.(check string) "edited = cold" "cold" (mode r2)

let fixpoint_iterations sink =
  List.length
    (List.filter
       (fun (e : Obs.event) -> String.equal e.Obs.name "analysis.iteration")
       (Obs.events sink))

(* The contract the reuse rests on: an unchanged function is answered
   with exactly a fresh fixpoint's result and without iterating, and a
   corrupted prior is detected and recomputed to the same result. *)
let test_identity_contract () =
  let af, asg = post_ra (Kernels.fir ()) in
  let cfg = config_of af asg in
  let fresh = fingerprint (Analysis.fixpoint ~settings cfg af) in
  let r0 = Incremental.analyze ~settings cfg af in
  let sink = Obs.memory () in
  let r1 =
    Incremental.analyze ~obs:sink ~settings ~prior:r0.Incremental.prior cfg af
  in
  Alcotest.(check string) "identity mode" "identity" (mode r1);
  Alcotest.(check string) "identity == fresh fixpoint" fresh
    (fingerprint r1.Incremental.outcome);
  Alcotest.(check int) "identity runs no fixpoint iteration" 0
    (fixpoint_iterations sink);
  let poisoned =
    Tdfa_verify.Fault.corrupt_recording ~seed:11 r0.Incremental.prior
  in
  let sink = Obs.memory () in
  let r2 = Incremental.analyze ~obs:sink ~settings ~prior:poisoned cfg af in
  Alcotest.(check string) "corrupt prior falls back"
    "fallback:corrupt-recording" (mode r2);
  Alcotest.(check string) "fallback == fresh fixpoint" fresh
    (fingerprint r2.Incremental.outcome);
  Alcotest.(check bool) "fallback iterates" true (fixpoint_iterations sink > 0)

let test_obs_counters () =
  let t = Obs.memory () in
  let af, asg = post_ra (Kernels.fir ()) in
  let cfg = config_of af asg in
  let r0 = Incremental.analyze ~obs:t ~settings cfg af in
  let r1 =
    Incremental.analyze ~obs:t ~settings ~prior:r0.Incremental.prior cfg af
  in
  let edited =
    fst (Tdfa_optim.Nop_insert.apply af ~hot_after:(fun _ i -> i = 0) ~nops:1)
  in
  let _ =
    Incremental.analyze ~obs:t ~settings ~prior:r1.Incremental.prior
      (config_of edited asg) edited
  in
  let _ =
    Incremental.analyze ~obs:t ~settings
      ~prior:(Incremental.poison_prior ~seed:3 r0.Incremental.prior)
      cfg af
  in
  let rows = Obs.metrics_rows t in
  Alcotest.(check string) "warm hits: the identity request" "1"
    (List.assoc "incremental.warm_hits" rows);
  Alcotest.(check string) "cold runs: first analysis and the edit" "2"
    (List.assoc "incremental.cold_runs" rows);
  Alcotest.(check string) "one fallback" "1"
    (List.assoc "incremental.fallbacks" rows);
  Alcotest.(check bool) "re-analysis span emitted" true
    (List.exists
       (fun (e : Obs.event) -> String.equal e.Obs.name "incremental.analyze")
       (Obs.events t))

(* --- Engine warm reuse ----------------------------------------------------- *)

let engine_spec =
  {
    Tdfa_engine.Engine.default_spec with
    Tdfa_engine.Engine.granularity = 2;
    settings;
  }

let test_engine_warm_reuse () =
  let open Tdfa_engine in
  let parent = Kernels.fib () in
  let edited = fst (Tdfa_optim.Strength.apply parent) in
  let warm = Engine.Warm.create () in
  let r0 =
    Engine.analyze_job ~warm ~layout engine_spec (Engine.job "fib" parent)
  in
  Alcotest.(check bool) "first run computes" true
    (r0.Engine.source = Engine.Computed);
  let r1 =
    Engine.analyze_job ~warm ~layout engine_spec
      (Engine.job ~parent "fib-edit" edited)
  in
  Alcotest.(check bool) "child of a recorded parent warm-starts" true
    (r1.Engine.source = Engine.Warm_hit);
  let cold =
    Engine.analyze_job ~layout engine_spec (Engine.job "fib-edit" edited)
  in
  Alcotest.(check bool) "warm report == cold report" true
    (Engine.same_result r1 cold);
  (* And through the batch API, with the warm-hit count surfaced. *)
  let batch =
    Engine.run_batch ~warm:(Engine.Warm.create ()) ~layout engine_spec
      [ Engine.job "fib" parent; Engine.job ~parent "fib-edit" edited ]
  in
  Alcotest.(check int) "batch counts the warm hit" 1 batch.Engine.warm_hits;
  (match batch.Engine.results with
   | [ (_, Ok a); (_, Ok b) ] ->
     Alcotest.(check bool) "batch child report == cold" true
       (Engine.same_result b cold);
     Alcotest.(check bool) "batch parent computed" true
       (a.Engine.source = Engine.Computed)
   | _ -> Alcotest.fail "batch failed")

let suite =
  let tc = Alcotest.test_case in
  [
    ( "incremental",
      [
        tc "block signatures are position-independent" `Quick
          test_signature_permutation_invariant;
        tc "instruction edit flips only its block's signature" `Quick
          test_signature_instr_edit;
        tc "successor edit flips only its block's signature" `Quick
          test_signature_succ_edit;
        tc "modes: cold/identity/cold after an edit" `Quick test_modes;
        tc "identity == fresh fixpoint, without iterating" `Quick
          test_identity_contract;
        tc "telemetry counters and span" `Quick test_obs_counters;
        tc "engine warm reuse via parent key" `Quick test_engine_warm_reuse;
        tc "poisoned exit state rejected" `Quick test_poisoned_exit_state;
      ] );
    ( "incremental.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_corrupt_or_mismatched_prior_goes_cold;
          prop_warm_equals_cold;
          prop_chained_warm_equals_cold;
          prop_passes_preserve_semantics;
          prop_fingerprint_covers_outcome;
        ] );
  ]
