(* The [Driver.run] facade is the only entry point to the analysis; its
   input variants must be mutually consistent — every pair of inputs
   that denote the same analysis must produce fingerprint-identical
   outcomes (the api_redesign contract of DESIGN.md §9). The legacy
   wrappers these properties used to compare against are deleted; the
   facade is now checked against itself, variant by variant. *)

open Tdfa_workload
open Tdfa_core
module Driver = Tdfa.Driver

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()
let gen_small = Generator.gen_func ~max_pool:10 ~max_depth:1 ~max_length:6 ()

(* Coarse + loose settings so a property case costs milliseconds (the
   cram suite covers the default configuration). *)
let settings =
  {
    Analysis.default_settings with
    Analysis.delta_k = 0.1;
    max_iterations = 100;
  }

let granularity = 2

let base_cfg =
  {
    (Driver.default ~layout) with
    Driver.granularity;
    settings;
  }

(* Outcomes compare by the engine's fingerprint: a digest over the
   convergence status, iteration count and every per-instruction thermal
   point — two outcomes agree everywhere iff their fingerprints do. *)
let fp = Tdfa_engine.Engine.fingerprint

let same_recovery (a : Analysis.recovery) (b : Analysis.recovery) =
  String.equal (fp a.Analysis.outcome) (fp b.Analysis.outcome)
  && a.Analysis.used = b.Analysis.used
  && List.length a.Analysis.attempts = List.length b.Analysis.attempts
  && List.for_all2
       (fun (x : Analysis.attempt) (y : Analysis.attempt) ->
         x.Analysis.fallback = y.Analysis.fallback
         && x.Analysis.iterations = y.Analysis.iterations
         && x.Analysis.converged = y.Analysis.converged)
       a.Analysis.attempts b.Analysis.attempts

let assigned f =
  let alloc = Tdfa_regalloc.Alloc.allocate f layout ~policy:base_cfg.Driver.policy in
  (alloc.Tdfa_regalloc.Alloc.func, alloc.Tdfa_regalloc.Alloc.assignment)

(* 1. Unallocated delegates allocation and then behaves as Assigned on
   the allocator's output. *)
let prop_unallocated_eq_assigned =
  QCheck2.Test.make
    ~name:"facade: Unallocated == allocate-then-Assigned" ~count:100
    gen_small (fun f ->
      let func, assignment = assigned f in
      let whole = Driver.run base_cfg (Driver.Unallocated f) in
      let staged = Driver.run base_cfg (Driver.Assigned (func, assignment)) in
      match whole.Driver.alloc with
      | None -> false
      | Some alloc ->
        String.equal (fp whole.Driver.outcome) (fp staged.Driver.outcome)
        && Tdfa_ir.Var.Set.equal alloc.Tdfa_regalloc.Alloc.spilled
             (let a = Tdfa_regalloc.Alloc.allocate f layout
                        ~policy:base_cfg.Driver.policy in
              a.Tdfa_regalloc.Alloc.spilled))

(* 2. Assigned is exactly the bare fixpoint over the facade-built
   transfer config. *)
let prop_assigned_eq_fixpoint =
  QCheck2.Test.make ~name:"facade: Assigned == Analysis.fixpoint"
    ~count:100 gen_small (fun f ->
      let func, assignment = assigned f in
      let cfg = Driver.transfer_config base_cfg func assignment in
      let bare = Analysis.fixpoint ~settings cfg func in
      let facade = Driver.run base_cfg (Driver.Assigned (func, assignment)) in
      String.equal (fp bare) (fp facade.Driver.outcome))

(* 3. Configured with the facade's own config is identical to Assigned
   (the config-building step commutes with the run). *)
let prop_configured_eq_assigned =
  QCheck2.Test.make ~name:"facade: Configured == Assigned" ~count:100
    gen_small (fun f ->
      let func, assignment = assigned f in
      let cfg = Driver.transfer_config base_cfg func assignment in
      let configured = Driver.run base_cfg (Driver.Configured (cfg, func)) in
      let assigned_r = Driver.run base_cfg (Driver.Assigned (func, assignment)) in
      String.equal (fp configured.Driver.outcome) (fp assigned_r.Driver.outcome))

(* 4. Configured under recovery is the bare ladder over its one
   configuration: every rung, coarser ones included, reuses the prebuilt
   config because its granularity cannot be rebuilt — rung for rung. *)
let prop_configured_recovery_eq_ladder =
  QCheck2.Test.make
    ~name:"facade: Configured + recover == ladder over its config" ~count:100
    gen_small (fun f ->
      let func, assignment = assigned f in
      let cfg = Driver.transfer_config base_cfg func assignment in
      let configured =
        Driver.run
          { base_cfg with Driver.recover = true }
          (Driver.Configured (cfg, func))
      in
      let bare =
        Analysis.recovery_ladder ~settings
          ~config_of:(fun ~granularity:_ -> cfg)
          ~granularity func
      in
      match configured.Driver.recovery with
      | Some r -> same_recovery r bare
      | None -> false)

(* 5. A cold Warm_start (no prior) is bit-identical to Assigned — the
   incremental engine's recording must not perturb the fixpoint. *)
let prop_warm_start_cold_eq_assigned =
  QCheck2.Test.make ~name:"facade: Warm_start (no prior) == Assigned"
    ~count:100 gen_small (fun f ->
      let func, assignment = assigned f in
      let warm =
        Driver.run base_cfg
          (Driver.Warm_start { func; assignment; prior = None })
      in
      let direct = Driver.run base_cfg (Driver.Assigned (func, assignment)) in
      String.equal (fp warm.Driver.outcome) (fp direct.Driver.outcome))

(* 6. The Trace input is exactly Configured over the equivalent
   hand-assembled config: frequency-1 straight-line carrier, the same
   per-instruction events, nothing on the terminators. *)
let prop_trace_eq_configured =
  QCheck2.Test.make ~name:"facade: Trace == hand-built Configured"
    ~count:100
    QCheck2.Gen.(pair (int_range 0 3) (int_range 1 500))
    (fun (s10, n) ->
      let sample =
        Tdfa_trace.Synth.zipf ~seed:7 ~s:(float_of_int s10 /. 2.0) ~addrs:32
          ~n ()
      in
      let compiled =
        Tdfa_trace.Compile.compile ~policy:Tdfa_trace.Mapping.Direct
          ~cells:64 sample
      in
      let func = Tdfa_trace.Compile.func compiled in
      let accesses = Tdfa_trace.Compile.accesses compiled in
      let traced =
        Driver.run base_cfg (Tdfa_trace.Compile.driver_input compiled)
      in
      let config =
        Transfer.make_config ~params:base_cfg.Driver.params ~granularity
          ~max_frequency:1.0 ~layout
          ~block_frequency:(fun _ -> 1.0)
          ~accesses_of_instr:(fun label index _ -> accesses label index)
          ~accesses_of_term:(fun _ _ -> [])
          ()
      in
      let by_hand = Driver.run base_cfg (Driver.Configured (config, func)) in
      String.equal (fp traced.Driver.outcome) (fp by_hand.Driver.outcome))

(* 7. The facade run is oblivious to the sink: a traced run and a silent
   run produce identical analyses (observability is write-only). *)
let prop_obs_transparent =
  QCheck2.Test.make ~name:"facade: memory-sink run == null-sink run"
    ~count:100 gen_small (fun f ->
      let silent = Driver.run base_cfg (Driver.Unallocated f) in
      let traced =
        Driver.run
          { base_cfg with Driver.obs = Tdfa_obs.Obs.memory () }
          (Driver.Unallocated f)
      in
      String.equal (fp silent.Driver.outcome) (fp traced.Driver.outcome))

let suite =
  [
    ( "driver.facade",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_unallocated_eq_assigned;
          prop_assigned_eq_fixpoint;
          prop_configured_eq_assigned;
          prop_configured_recovery_eq_ladder;
          prop_warm_start_cold_eq_assigned;
          prop_trace_eq_configured;
          prop_obs_transparent;
        ] );
  ]
