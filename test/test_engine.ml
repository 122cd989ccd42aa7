(* The differential harness for the batch engine: parallel execution and
   the content-addressed cache must be invisible — any [--jobs] and any
   cache state produce exactly the sequential facade result.
   Plus generator soundness (every random function passes the verifier)
   and digest sensitivity (every key component is load-bearing). *)

open Tdfa_ir
open Tdfa_workload
open Tdfa_engine

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

(* Coarser + looser than the defaults so a property case costs
   milliseconds; the cram suite covers the default configuration. *)
let fast_spec =
  {
    Engine.default_spec with
    Engine.granularity = 2;
    settings =
      {
        Tdfa_core.Analysis.default_settings with
        Tdfa_core.Analysis.delta_k = 0.1;
        max_iterations = 100;
      };
  }

let gen_small = Generator.gen_func ~max_pool:10 ~max_depth:1 ~max_length:6 ()

let job_of i f = Engine.job (Printf.sprintf "f%d" i) f

let report_of = function
  | _, Ok (r : Engine.report) -> r
  | name, Error msg -> Alcotest.failf "job %s failed: %s" name msg

(* --- Unit tests ----------------------------------------------------------- *)

let test_suite_jobs_equivalent () =
  let suite =
    List.map (fun (name, f) -> Engine.job name f) Kernels.all
  in
  let seq = Engine.run_batch ~jobs:1 ~layout fast_spec suite in
  let par = Engine.run_batch ~jobs:4 ~layout fast_spec suite in
  Alcotest.(check int) "pool size honoured" 4 par.Engine.domains;
  List.iter2
    (fun (n1, r1) (n2, r2) ->
      Alcotest.(check string) "submission order" n1 n2;
      match (r1, r2) with
      | Ok a, Ok b ->
        Alcotest.(check bool) (n1 ^ " identical") true (Engine.same_result a b)
      | _ -> Alcotest.failf "%s failed" n1)
    seq.Engine.results par.Engine.results

let test_disk_cache_roundtrip () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tdfa_engine_cache_%d" (Unix.getpid ()))
  in
  let cache = Engine.Cache.on_disk ~dir in
  let jobs =
    List.map (fun (name, f) -> Engine.job name f)
      [ ("fib", Kernels.fib ()); ("crc", Kernels.crc ()) ]
  in
  let first = Engine.run_batch ~cache ~layout fast_spec jobs in
  Alcotest.(check (pair int int)) "first run computes" (0, 2)
    (first.Engine.hits, first.Engine.misses);
  (* A second engine instance over the same directory hits on disk. *)
  let cache2 = Engine.Cache.on_disk ~dir in
  let second = Engine.run_batch ~cache:cache2 ~layout fast_spec jobs in
  Alcotest.(check (pair int int)) "second run hits" (2, 0)
    (second.Engine.hits, second.Engine.misses);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "hit equals computed" true
        (Engine.same_result (report_of a) (report_of b)))
    first.Engine.results second.Engine.results;
  (* A torn/garbage entry reads as a miss, never as a wrong answer. *)
  let key = (report_of (List.hd first.Engine.results)).Engine.key in
  Out_channel.with_open_bin
    (Filename.concat dir (key ^ ".report"))
    (fun oc -> Out_channel.output_string oc "garbage");
  let third = Engine.run_batch ~cache:(Engine.Cache.on_disk ~dir) ~layout
      fast_spec jobs
  in
  Alcotest.(check (pair int int)) "garbage entry recomputed" (1, 1)
    (third.Engine.hits, third.Engine.misses);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "recomputed still equal" true
        (Engine.same_result (report_of a) (report_of b)))
    first.Engine.results third.Engine.results

let broken_func () =
  (* Parses fine, fails the verifier: a jump to a missing block and a
     read of a never-defined variable (the cram suite's corrupt input). *)
  Parser.parse_func
    "func @broken() {\nentry:\n  %a = const 1\n  %b = add %a, %c\n  jmp \
     missing\n}"

let test_failure_isolated () =
  let jobs =
    [
      Engine.job "fib" (Kernels.fib ());
      Engine.job "broken" (broken_func ());
      Engine.job "crc" (Kernels.crc ());
    ]
  in
  let b = Engine.run_batch ~jobs:2 ~layout fast_spec jobs in
  Alcotest.(check int) "one failure" 1 b.Engine.failed;
  (match b.Engine.results with
   | [ (_, Ok _); ("broken", Error msg); (_, Ok _) ] ->
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
       scan 0
     in
     Alcotest.(check bool) "mentions verification" true
       (contains msg "verification")
   | _ -> Alcotest.fail "wrong result shape")

(* A corrupt-but-well-framed entry (valid magic, wrong digest) is
   quarantined for post-mortem instead of failing every future read; a
   stale-format entry is a plain miss that the next store overwrites. *)
let test_cache_quarantine () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tdfa_engine_quarantine_%d" (Unix.getpid ()))
  in
  let cache = Engine.Cache.on_disk ~dir in
  let jobs = [ Engine.job "fib" (Kernels.fib ()) ] in
  let r =
    report_of (List.hd (Engine.run_batch ~cache ~layout fast_spec jobs).Engine.results)
  in
  let path = Filename.concat dir (r.Engine.key ^ ".report") in
  (* Flip one payload byte: framing intact, digest no longer matches. *)
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string raw in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  let obs = Tdfa_obs.Obs.memory () in
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Engine.Cache.find ~obs cache r.Engine.key = None);
  let rows = Tdfa_obs.Obs.metrics_rows obs in
  Alcotest.(check string) "quarantine counted" "1"
    (List.assoc "engine.cache.quarantined" rows);
  Alcotest.(check bool) "entry moved aside, not left in place" true
    ((not (Sys.file_exists path))
    && Sys.file_exists
         (Filename.concat
            (Filename.concat dir ".quarantine")
            (r.Engine.key ^ ".report")));
  (* Recompute-and-store repopulates; the result is unchanged. *)
  let r2 =
    report_of
      (List.hd (Engine.run_batch ~obs ~cache ~layout fast_spec jobs).Engine.results)
  in
  Alcotest.(check bool) "recomputed result identical" true
    (Engine.same_result r r2);
  Alcotest.(check bool) "cache healthy again" true
    (Engine.Cache.find cache r.Engine.key <> None);
  (* Stale format: a miss, never a quarantine. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "tdfa-engine-cache-0\nwhatever");
  let obs2 = Tdfa_obs.Obs.memory () in
  Alcotest.(check bool) "old format reads as a miss" true
    (Engine.Cache.find ~obs:obs2 cache r.Engine.key = None);
  Alcotest.(check bool) "stale entry not quarantined" false
    (List.mem_assoc "engine.cache.quarantined"
       (Tdfa_obs.Obs.metrics_rows obs2));
  Engine.Cache.sync cache

(* A stop token that trips before any claim drains the batch without
   running a job; every unclaimed slot reports interruption, never a
   silent drop. *)
let test_stop_token_drains () =
  let jobs =
    [ Engine.job "fib" (Kernels.fib ()); Engine.job "crc" (Kernels.crc ()) ]
  in
  let b =
    Engine.run_batch ~stop:(fun () -> true) ~layout fast_spec jobs
  in
  Alcotest.(check bool) "batch reports the stop" true b.Engine.stopped;
  List.iter
    (fun (_, r) ->
      match r with
      | Error "interrupted before start" -> ()
      | _ -> Alcotest.fail "expected an interrupted slot")
    b.Engine.results;
  (* And a stop that never trips leaves the flag clear. *)
  let b2 = Engine.run_batch ~stop:(fun () -> false) ~layout fast_spec jobs in
  Alcotest.(check bool) "clean run not marked stopped" false b2.Engine.stopped

(* Worker-stall injection at rate 1.0 wedges every claim longer than
   the watchdog period: the supervisor must hand the stalled jobs to
   replacement domains, and the double-executed results must stay
   correct (jobs are deterministic and writes idempotent). *)
let test_watchdog_replaces_stalled_worker () =
  let plan =
    {
      Tdfa_verify.Fault.Plan.seed = 5;
      rates = [ (Tdfa_verify.Fault.Plan.Worker_stall, 1.0) ];
      stall_ms = 120.0;
    }
  in
  let obs = Tdfa_obs.Obs.memory () in
  let jobs =
    [ Engine.job "fib" (Kernels.fib ()); Engine.job "crc" (Kernels.crc ()) ]
  in
  let b =
    Engine.run_batch ~obs ~watchdog_ms:25.0
      ~faults:(Tdfa_verify.Fault.Plan.injector plan)
      ~layout fast_spec jobs
  in
  let rows = Tdfa_obs.Obs.metrics_rows obs in
  Alcotest.(check bool) "stalls injected" true
    (List.mem_assoc "engine.stalls.injected" rows);
  Alcotest.(check bool) "watchdog replaced at least one worker" true
    (List.mem_assoc "engine.watchdog.replaced" rows);
  Alcotest.(check int) "no job lost to the stall" 0 b.Engine.failed;
  let clean = Engine.run_batch ~layout fast_spec jobs in
  List.iter2
    (fun a c ->
      Alcotest.(check bool) "rescued result == clean result" true
        (Engine.same_result (report_of a) (report_of c)))
    b.Engine.results clean.Engine.results

let test_recovery_rung_reported () =
  let spec = { fast_spec with Engine.recover = true } in
  let r =
    Engine.analyze_job ~layout spec (Engine.job "fib" (Kernels.fib ()))
  in
  Alcotest.(check string) "primary converges" "primary" r.Engine.rung

(* --- Differential properties ---------------------------------------------- *)

(* Any pool size produces exactly the sequential facade result, job
   for job, in submission order. *)
let prop_parallel_equals_sequential =
  QCheck2.Test.make ~name:"engine: any --jobs equals sequential facade run"
    ~count:100
    QCheck2.Gen.(pair (list_size (return 3) gen_small) (int_range 1 4))
    (fun (funcs, jobs) ->
      let batch =
        Engine.run_batch ~jobs ~layout fast_spec (List.mapi job_of funcs)
      in
      List.for_all2
        (fun f (_, result) ->
          match result with
          | Error _ -> false
          | Ok (r : Engine.report) ->
            let seq =
              let d = Tdfa.Driver.default ~layout in
              Tdfa.Driver.run
                {
                  d with
                  Tdfa.Driver.params = fast_spec.Engine.params;
                  granularity = fast_spec.Engine.granularity;
                  settings = fast_spec.Engine.settings;
                  policy = fast_spec.Engine.policy;
                }
                (Tdfa.Driver.Unallocated f)
            in
            let alloc = Option.get seq.alloc in
            let outcome = seq.outcome in
            let info = Tdfa_core.Analysis.info outcome in
            String.equal r.Engine.fingerprint (Engine.fingerprint outcome)
            && r.Engine.converged = Tdfa_core.Analysis.converged outcome
            && r.Engine.iterations = info.Tdfa_core.Analysis.iterations
            && r.Engine.max_pressure
               = alloc.Tdfa_regalloc.Alloc.max_pressure)
        funcs batch.Engine.results)

(* A cache hit is indistinguishable from recomputation. *)
let prop_cache_hit_exact =
  QCheck2.Test.make ~name:"engine: cache hit returns the recomputed value"
    ~count:100 gen_small (fun f ->
      let cache = Engine.Cache.in_memory () in
      let job = [ Engine.job "f" (f) ] in
      let first = Engine.run_batch ~cache ~layout fast_spec job in
      let second = Engine.run_batch ~cache ~layout fast_spec job in
      let fresh = Engine.run_batch ~layout fast_spec job in
      let r1 = report_of (List.hd first.Engine.results) in
      let r2 = report_of (List.hd second.Engine.results) in
      let r3 = report_of (List.hd fresh.Engine.results) in
      second.Engine.hits = 1
      && r2.Engine.source = Engine.Cache_hit
      && Engine.same_result r1 r2
      && Engine.same_result r2 r3)

(* Generator soundness against the deep verifier (not just Validate):
   CFG integrity, definite assignment on every path, spill balance. *)
let prop_generated_functions_verify =
  QCheck2.Test.make ~name:"generator: random functions pass Tdfa_verify.Check"
    ~count:150
    (Generator.gen_func ~max_pool:14 ~max_depth:2 ())
    (fun f -> Tdfa_verify.Check.func f = [])

(* Every component of the content address is load-bearing: changing any
   one of them must change the key, and identical inputs must agree.
   Each case yields a pair of keys that differ in exactly one
   component. *)
let prop_digest_sensitivity =
  let open Tdfa_core in
  let key ?(l = layout) spec f = Engine.digest_key ~layout:l spec f in
  let with_settings s = { fast_spec with Engine.settings = s } in
  let settings = fast_spec.Engine.settings in
  QCheck2.Test.make ~name:"engine: cache key sensitive to every component"
    ~count:120
    QCheck2.Gen.(pair gen_small (int_range 0 9))
    (fun (f, component) ->
      let a, b =
        match component with
        | 0 ->
          ( key fast_spec f,
            key { fast_spec with Engine.granularity = 3 } f )
        | 1 ->
          ( key fast_spec f,
            key
              (with_settings
                 { settings with Analysis.delta_k = settings.Analysis.delta_k /. 2.0 })
              f )
        | 2 ->
          ( key fast_spec f,
            key
              (with_settings
                 { settings with
                   Analysis.max_iterations = settings.Analysis.max_iterations + 1 })
              f )
        | 3 ->
          ( key fast_spec f,
            key (with_settings { settings with Analysis.join = Analysis.Average }) f )
        | 4 ->
          ( key fast_spec f,
            key { fast_spec with Engine.policy = Tdfa_regalloc.Policy.Round_robin } f )
        | 5 ->
          (* Same constructor, different parameter. *)
          ( key { fast_spec with Engine.policy = Tdfa_regalloc.Policy.Random 1 } f,
            key { fast_spec with Engine.policy = Tdfa_regalloc.Policy.Random 2 } f )
        | 6 ->
          ( key fast_spec f,
            key ~l:(Tdfa_floorplan.Layout.make ~rows:4 ~cols:8 ()) fast_spec f )
        | 7 ->
          let p = fast_spec.Engine.params in
          ( key fast_spec f,
            key
              { fast_spec with
                Engine.params =
                  { p with Tdfa_thermal.Params.ambient_k =
                      p.Tdfa_thermal.Params.ambient_k +. 1.0 } }
              f )
        | 8 ->
          ( key fast_spec f,
            key { fast_spec with Engine.analysis_dt_s = Some 1e-9 } f )
        | _ ->
          ( key fast_spec f,
            key { fast_spec with Engine.recover = true } f )
      in
      String.equal (key fast_spec f) (key fast_spec f)
      && not (String.equal a b))

(* An IR job's cache entry is addressed by [digest_key] of its function
   alone, whatever the job is called — tools that look reports up by
   function (not by job) depend on it. A trace job over the same carrier
   must not alias it. *)
let prop_job_key_is_digest_key =
  QCheck2.Test.make ~name:"engine: IR job key is the function's digest_key"
    ~count:60
    QCheck2.Gen.(pair gen_small (int_range 0 1))
    (fun (f, which) ->
      let spec =
        if which = 0 then fast_spec
        else { fast_spec with Engine.policy = Tdfa_regalloc.Policy.Random 7 }
      in
      let key = Engine.digest_key ~layout spec f in
      let trace =
        Engine.trace_job ~stream_id:"s" ~accesses:(fun _ _ -> []) "t" f
      in
      String.equal (Engine.job_key ~layout spec (Engine.job "any name" f)) key
      && not (String.equal (Engine.job_key ~layout spec trace) key))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "engine",
      [
        tc "kernel suite: jobs=4 identical to jobs=1" `Quick
          test_suite_jobs_equivalent;
        tc "disk cache roundtrip + corruption safety" `Quick
          test_disk_cache_roundtrip;
        tc "failing job isolated in batch" `Quick test_failure_isolated;
        tc "corrupt cache entry quarantined + recomputed" `Quick
          test_cache_quarantine;
        tc "stop token drains without silent drops" `Quick
          test_stop_token_drains;
        tc "watchdog replaces a stalled worker" `Quick
          test_watchdog_replaces_stalled_worker;
        tc "recovery rung reported" `Quick test_recovery_rung_reported;
      ] );
    ( "engine.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_parallel_equals_sequential;
          prop_cache_hit_exact;
          prop_generated_functions_verify;
          prop_digest_sensitivity;
          prop_job_key_is_digest_key;
        ] );
  ]
