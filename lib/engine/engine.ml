open Tdfa_ir
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core
open Tdfa_obs

type spec = {
  policy : Policy.t;
  granularity : int;
  settings : Analysis.settings;
  params : Params.t;
  analysis_dt_s : float option;
  recover : bool;
}

let default_spec =
  {
    policy = Policy.First_fit;
    granularity = 1;
    settings = Analysis.default_settings;
    params = Params.default;
    analysis_dt_s = None;
    recover = false;
  }

type stream = {
  stream_id : string;
  accesses : Label.t -> int -> Access.event list;
}

type job = {
  job_name : string;
  func : Func.t;
  parent : Func.t option;
  stream : stream option;
}

let job ?parent job_name func = { job_name; func; parent; stream = None }

let trace_job ~stream_id ~accesses job_name func =
  { job_name; func; parent = None; stream = Some { stream_id; accesses } }

type source = Computed | Cache_hit | Warm_hit

type report = {
  name : string;
  key : string;
  instrs : int;
  blocks : int;
  spilled : int;
  max_pressure : int;
  converged : bool;
  iterations : int;
  final_delta_k : float;
  peak_k : float;
  mean_k : float;
  rung : string;
  fingerprint : string;
  source : source;
  wall_ms : float;
}

let same_result a b =
  { a with source = Computed; wall_ms = 0.0 }
  = { b with source = Computed; wall_ms = 0.0 }

type batch = {
  results : (string * (report, string) result) list;
  hits : int;
  warm_hits : int;
  misses : int;
  failed : int;
  stopped : bool;
  domains : int;
  wall_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Content addressing                                                   *)
(* ------------------------------------------------------------------ *)

(* [func], [layout] and [spec] must stay plain data (no closures, no
   hash tables): only then is their [Content] encoding canonical, and
   every component — policy parameters included — part of the key. *)
let digest_key ~layout spec func = Content.digest (func, layout, spec)

(* Trace jobs fold in the stream digest, because every compiled trace
   shares the same Nop-skeleton carrier and the IR alone would alias
   them all. *)
let job_key ~layout spec job =
  match job.stream with
  | None -> digest_key ~layout spec job.func
  | Some s -> Content.digest (job.func, layout, spec, s.stream_id)

let fingerprint = Content.outcome

(* ------------------------------------------------------------------ *)
(* One job                                                              *)
(* ------------------------------------------------------------------ *)

let now_ms () = Unix.gettimeofday () *. 1000.0

(* The facade owns the run wiring: one config per job, the engine's
   sink threaded through so allocation and fixpoint telemetry land on
   the same timeline as the pool's own spans. *)
let driver_config ~obs ~layout spec =
  {
    (Tdfa.Driver.default ~layout) with
    Tdfa.Driver.settings = spec.settings;
    policy = spec.policy;
    recover = spec.recover;
    granularity = spec.granularity;
    params = spec.params;
    analysis_dt_s = spec.analysis_dt_s;
    obs;
  }

module Warm = struct
  (* Func-granularity warm reuse: the cached result (Incremental.prior)
     of a computed job, keyed by its content address, so a later job
     naming that function as its [parent] reuses the outcome when the
     allocated IR turns out unchanged instead of running the fixpoint.
     In-memory only — priors hold every per-instruction thermal state,
     too bulky and too version-bound to persist next to the report
     cache. *)
  type t = {
    mutex : Mutex.t;
    tbl : (string, Incremental.prior) Hashtbl.t;
  }

  let create () = { mutex = Mutex.create (); tbl = Hashtbl.create 64 }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let find t key = locked t (fun () -> Hashtbl.find_opt t.tbl key)
  let store t key p = locked t (fun () -> Hashtbl.replace t.tbl key p)
end

let analyze_keyed ?warm ~obs ~layout ~key spec job =
  let t0 = now_ms () in
  (* The verify gate: structurally broken IR fails the job before the
     allocator or the analysis can trip over it. *)
  (match
     Obs.span obs "engine.verify"
       ~args:[ ("job", Obs.Str job.job_name) ]
       (fun () -> Tdfa_verify.Check.func job.func)
   with
   | [] -> ()
   | d :: _ as ds ->
     Obs.incr obs "engine.verify.rejections";
     failwith
       (Printf.sprintf "IR verification failed (%d violations), first: %s"
          (List.length ds)
          (Tdfa_verify.Check.to_string d)));
  let r =
    match (job.stream, warm) with
    | Some s, _ ->
      (* Trace job: the carrier IR has no variables to allocate and no
         parent to warm-start from — straight to the fixpoint. *)
      Tdfa.Driver.run
        (driver_config ~obs ~layout spec)
        (Tdfa.Driver.Trace { func = job.func; accesses = s.accesses })
    | None, None ->
      Tdfa.Driver.run
        (driver_config ~obs ~layout spec)
        (Tdfa.Driver.Unallocated job.func)
    | None, Some store ->
      (* Warm path: allocate here, then analyse through the incremental
         engine. A prior cached under the parent's content key is reused
         when its key (settings, configuration, every block signature)
         matches the allocated IR; a stale or mismatched parent degrades
         to a cold run, never to a wrong result. *)
      let prior =
        Option.bind job.parent (fun pf ->
            Warm.find store (digest_key ~layout spec pf))
      in
      let alloc =
        Obs.span obs "driver.allocate"
          ~args:[ ("policy", Obs.Str (Policy.name spec.policy)) ]
          (fun () ->
            Alloc.allocate ~obs job.func layout ~policy:spec.policy)
      in
      let r =
        Tdfa.Driver.run
          (driver_config ~obs ~layout spec)
          (Tdfa.Driver.Warm_start
             {
               func = alloc.Alloc.func;
               assignment = alloc.Alloc.assignment;
               prior;
             })
      in
      (match r.Tdfa.Driver.incremental with
       | Some inc -> Warm.store store key inc.Incremental.prior
       | None -> ());
      { r with Tdfa.Driver.alloc = Some alloc }
  in
  (* Trace jobs never allocate; report zeros for the allocator fields. *)
  let spilled, max_pressure =
    match r.Tdfa.Driver.alloc with
    | Some a -> (Var.Set.cardinal a.Alloc.spilled, a.Alloc.max_pressure)
    | None -> (0, 0)
  in
  let outcome = r.Tdfa.Driver.outcome in
  let source =
    match r.Tdfa.Driver.incremental with
    | Some { Incremental.mode = Incremental.Identity; _ } ->
      Obs.incr obs "engine.warm.hits";
      Obs.instant obs "engine.warm.hit"
        ~args:[ ("job", Obs.Str job.job_name); ("key", Obs.Str key) ];
      Warm_hit
    | _ -> Computed
  in
  let rung =
    match r.Tdfa.Driver.recovery with
    | Some rec_ -> Analysis.fallback_name rec_.Analysis.used
    | None -> Analysis.fallback_name Analysis.Primary
  in
  let info = Analysis.info outcome in
  (* The job's time ends here: the report's derived fields (peak and
     mean maps, the fingerprint) are computed outside it. *)
  let wall_ms = now_ms () -. t0 in
  {
    name = job.job_name;
    key;
    instrs = Func.instr_count job.func;
    blocks = List.length job.func.Func.blocks;
    spilled;
    max_pressure;
    converged = Analysis.converged outcome;
    iterations = info.Analysis.iterations;
    final_delta_k = info.Analysis.final_delta_k;
    peak_k = Tdfa_core.Thermal_state.peak (Analysis.peak_map info);
    mean_k = Tdfa_core.Thermal_state.mean (Analysis.mean_map info);
    rung;
    fingerprint = fingerprint outcome;
    source;
    wall_ms;
  }

let analyze_job ?(obs = Obs.null) ?warm ~layout spec job =
  analyze_keyed ?warm ~obs ~layout ~key:(job_key ~layout spec job) spec job

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  (* Bump on any change to the [report] type, the key or fingerprint
     encoding, or the entry framing: old entries then fail the magic
     check and read as misses instead of unmarshalling garbage. Every
     entry is framed as two header lines ([magic], then the hex digest
     of the payload) followed by the raw marshalled report, so a torn
     or bit-rotted payload is detected before [Marshal.from_string] can
     trip over it. *)
  let magic = "tdfa-engine-cache-5"

  type backend = Memory of (string, report) Hashtbl.t | Disk of string
  type t = { mutex : Mutex.t; backend : backend }

  let in_memory () =
    { mutex = Mutex.create (); backend = Memory (Hashtbl.create 64) }

  let on_disk ~dir =
    (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
     with Sys_error _ -> ());
    { mutex = Mutex.create (); backend = Disk dir }

  let path_of dir key = Filename.concat dir (key ^ ".report")
  let quarantine_dir dir = Filename.concat dir ".quarantine"

  (* A corrupt entry is evidence — of a crashed writer, a bad disk, or
     an injected fault — so move it aside for post-mortem instead of
     leaving it to fail every future read, and let the caller
     recompute. Falls back to deletion if the rename is impossible. *)
  let quarantine ~obs dir key =
    let path = path_of dir key in
    (try
       let qdir = quarantine_dir dir in
       if not (Sys.file_exists qdir) then Sys.mkdir qdir 0o755;
       Sys.rename path (Filename.concat qdir (key ^ ".report"))
     with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
    Obs.instant obs "engine.cache.quarantine" ~args:[ ("key", Obs.Str key) ];
    Obs.incr obs "engine.cache.quarantined"

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  (* Framing: [magic '\n' digest '\n' payload]. *)
  let parse_entry raw =
    match String.index_opt raw '\n' with
    | None -> `Stale
    | Some i -> (
      if not (String.equal (String.sub raw 0 i) magic) then `Stale
      else
        match String.index_from_opt raw (i + 1) '\n' with
        | None -> `Torn
        | Some j -> (
          let digest = String.sub raw (i + 1) (j - i - 1) in
          let payload =
            String.sub raw (j + 1) (String.length raw - j - 1)
          in
          if
            not
              (String.equal digest (Digest.to_hex (Digest.string payload)))
          then `Torn
          else
            match (Marshal.from_string payload 0 : report) with
            | r -> `Ok r
            | exception _ -> `Torn))

  let find ?(obs = Obs.null) t key =
    locked t (fun () ->
        match t.backend with
        | Memory tbl -> Hashtbl.find_opt tbl key
        | Disk dir -> (
          let path = path_of dir key in
          if not (Sys.file_exists path) then None
          else
            match In_channel.with_open_bin path In_channel.input_all with
            | exception Sys_error _ ->
              (* Unreadable entry: a miss, never an abort. *)
              Obs.instant obs "engine.cache.torn"
                ~args:[ ("key", Obs.Str key) ];
              Obs.incr obs "engine.cache.torn";
              None
            | raw -> (
              match parse_entry raw with
              | `Ok r ->
                Obs.instant obs "engine.cache.read"
                  ~args:[ ("key", Obs.Str key) ];
                Some r
              | `Stale ->
                (* A different format version reads as a miss; the next
                   store overwrites it in place. *)
                Obs.instant obs "engine.cache.stale"
                  ~args:[ ("key", Obs.Str key) ];
                Obs.incr obs "engine.cache.stale";
                None
              | `Torn ->
                (* Truncated or corrupt entry: quarantine and recompute
                   — a miss, never an abort. *)
                Obs.instant obs "engine.cache.torn"
                  ~args:[ ("key", Obs.Str key) ];
                Obs.incr obs "engine.cache.torn";
                quarantine ~obs dir key;
                None)))

  let store ?(obs = Obs.null) t key r =
    let r = { r with source = Computed } in
    locked t (fun () ->
        match t.backend with
        | Memory tbl -> Hashtbl.replace tbl key r
        | Disk dir -> (
          try
            let payload = Marshal.to_string r [] in
            let tmp = Filename.temp_file ~temp_dir:dir "report" ".tmp" in
            let fd =
              Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644
            in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let oc = Unix.out_channel_of_descr fd in
                Out_channel.output_string oc magic;
                Out_channel.output_char oc '\n';
                Out_channel.output_string oc
                  (Digest.to_hex (Digest.string payload));
                Out_channel.output_char oc '\n';
                Out_channel.output_string oc payload;
                Out_channel.flush oc;
                (* fsync before the rename: a crash may lose the entry
                   but can never publish a half-written one under its
                   key. *)
                try Unix.fsync fd with Unix.Unix_error _ -> ());
            Sys.rename tmp (path_of dir key);
            Obs.instant obs "engine.cache.write"
              ~args:[ ("key", Obs.Str key) ];
            Obs.incr obs "engine.cache.writes"
          with Sys_error _ | Unix.Unix_error _ -> ()))

  (* Flush the directory entry itself, so entries renamed into place
     survive a machine crash, not just a process crash. Used by the
     SIGINT drain path before exiting. *)
  let sync t =
    locked t (fun () ->
        match t.backend with
        | Memory _ -> ()
        | Disk dir -> (
          match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
          | exception Unix.Unix_error _ -> ()
          | fd ->
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                try Unix.fsync fd with Unix.Unix_error _ -> ())))
end

(* ------------------------------------------------------------------ *)
(* The pool                                                             *)
(* ------------------------------------------------------------------ *)

let run_cached ?(obs = Obs.null) ?cache ?warm ?faults ~layout spec job =
  let key = job_key ~layout spec job in
  let cached =
    match faults with
    | Some inj
      when cache <> None
           && Tdfa_verify.Fault.Plan.fires inj
                Tdfa_verify.Fault.Plan.Torn_cache ->
      (* Injected torn read: behave exactly like the real torn path —
         the entry is unusable, so recompute. *)
      Obs.instant obs "engine.cache.injected_torn"
        ~args:[ ("job", Obs.Str job.job_name) ];
      Obs.incr obs "engine.cache.injected_torn";
      None
    | _ -> Option.bind cache (fun c -> Cache.find ~obs c key)
  in
  match cached with
  | Some r ->
    Obs.incr obs "engine.cache.hits";
    Obs.instant obs "engine.cache.hit"
      ~args:[ ("job", Obs.Str job.job_name); ("key", Obs.Str key) ];
    { r with name = job.job_name; source = Cache_hit; wall_ms = 0.0 }
  | None ->
    if cache <> None then begin
      Obs.incr obs "engine.cache.misses";
      Obs.instant obs "engine.cache.miss"
        ~args:[ ("job", Obs.Str job.job_name); ("key", Obs.Str key) ]
    end;
    let r = analyze_keyed ?warm ~obs ~layout ~key spec job in
    Option.iter (fun c -> Cache.store ~obs c key r) cache;
    r

let run_batch ?(obs = Obs.null) ?(jobs = 1) ?cache ?warm ?stop ?watchdog_ms
    ?faults ~layout spec job_list =
  let t0 = now_ms () in
  let batch_t0_us = Obs.now_us obs in
  let queue = Array.of_list job_list in
  let n = Array.length queue in
  let results = Array.make n (Error "not run") in
  let stop_requested =
    match stop with None -> (fun () -> false) | Some f -> f
  in
  let run i =
    let job = queue.(i) in
    (* Every job was submitted when the batch started; the time until a
       worker claims it is its queue wait. Recorded retroactively as a
       Complete span so the trace shows wait and run per job. *)
    let claimed_us = Obs.now_us obs in
    if Obs.tracing obs then
      Obs.complete obs
        ~args:[ ("job", Obs.Str job.job_name) ]
        ~name:"engine.job.wait" ~ts_us:batch_t0_us
        ~dur_us:(claimed_us -. batch_t0_us) ();
    Obs.observe obs "engine.job.queue_wait_ms"
      ((claimed_us -. batch_t0_us) /. 1.0e3);
    Obs.span obs "engine.job"
      ~args:[ ("job", Obs.Str job.job_name); ("index", Obs.Int i) ]
      (fun () ->
        results.(i) <-
          (match
             run_cached ~obs ?cache ?warm ?faults ~layout spec job
           with
           | r ->
             Obs.observe obs "engine.job.wall_ms" r.wall_ms;
             Ok r
           | exception Failure msg -> Error msg
           | exception e -> Error (Printexc.to_string e)))
  in
  (* Work queue: workers claim the next unclaimed index until drained
     (or until [stop] trips — checked before each claim, never
     mid-job, so an interrupted batch always drains its in-flight
     work). Every job is independent and deterministic, so the claim
     order (which *is* scheduling-dependent) never shows in the
     reports. *)
  let next = Atomic.make 0 in
  let domains = max 1 (min jobs (max 1 n)) in
  (* Supervision state: one heartbeat timestamp and one claimed-job
     slot per pool worker, plus a per-job rescue latch so a wedged
     worker's job is taken over at most once. *)
  let heartbeat = Array.init domains (fun _ -> Atomic.make infinity) in
  let claimed = Array.init domains (fun _ -> Atomic.make (-1)) in
  let rescued = Array.init n (fun _ -> Atomic.make false) in
  let worker w =
    let rec loop () =
      if not (stop_requested ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Atomic.set heartbeat.(w) (now_ms ());
          Atomic.set claimed.(w) i;
          (match faults with
           | Some inj
             when Tdfa_verify.Fault.Plan.fires inj
                    Tdfa_verify.Fault.Plan.Worker_stall ->
             Obs.incr obs "engine.stalls.injected";
             Unix.sleepf (Tdfa_verify.Fault.Plan.stall_s inj)
           | _ -> ());
          run i;
          Atomic.set claimed.(w) (-1);
          loop ()
        end
      end
    in
    loop ()
  in
  (* Watchdog: a supervisor domain samples worker heartbeats. A worker
     that has sat on one claimed job longer than [watchdog_ms] is
     presumed wedged; its job is re-run on a replacement domain that
     then joins the pool and keeps draining the queue. Jobs are
     deterministic and result writes idempotent, so the original
     worker waking up later and finishing the same job is harmless.
     (OCaml domains cannot be killed, so a truly-wedged worker still
     delays the final join — the watchdog guarantees job progress, not
     worker reclamation.) *)
  let supervisor_stop = Atomic.make false in
  let replacements = ref [] in
  let replacements_mutex = Mutex.create () in
  let supervise ms =
    let rec loop () =
      if not (Atomic.get supervisor_stop) then begin
        Unix.sleepf (Float.max 1.0 (ms /. 4.0) /. 1000.0);
        let now = now_ms () in
        Array.iteri
          (fun w hb ->
            let i = Atomic.get claimed.(w) in
            if
              i >= 0 && i < n
              && now -. Atomic.get hb > ms
              && not (Atomic.exchange rescued.(i) true)
            then begin
              Obs.incr obs "engine.watchdog.replaced";
              Obs.instant obs "engine.watchdog.replace"
                ~args:[ ("worker", Obs.Int w); ("job", Obs.Int i) ];
              let d =
                Domain.spawn (fun () ->
                    run i;
                    worker w)
              in
              Mutex.lock replacements_mutex;
              replacements := d :: !replacements;
              Mutex.unlock replacements_mutex
            end)
          heartbeat;
        loop ()
      end
    in
    loop ()
  in
  let supervisor =
    match watchdog_ms with
    | Some ms when ms > 0.0 -> Some (Domain.spawn (fun () -> supervise ms))
    | _ -> None
  in
  if domains = 1 then worker 0
  else begin
    (* The calling domain is part of the pool: [jobs = 4] computes on
       four domains, not five. *)
    let spawned =
      List.init (domains - 1) (fun k ->
          Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    List.iter Domain.join spawned
  end;
  Atomic.set supervisor_stop true;
  Option.iter Domain.join supervisor;
  Mutex.lock replacements_mutex;
  let spawned_replacements = !replacements in
  Mutex.unlock replacements_mutex;
  List.iter Domain.join spawned_replacements;
  (* Jobs never claimed because [stop] tripped are reported as
     interrupted, not silently dropped. *)
  let unclaimed = max 0 (n - min n (Atomic.get next)) in
  let stopped = unclaimed > 0 in
  if stopped then begin
    Obs.incr obs ~by:unclaimed "engine.jobs.skipped";
    for i = n - unclaimed to n - 1 do
      if results.(i) = Error "not run" then
        results.(i) <- Error "interrupted before start"
    done
  end;
  let hits = ref 0
  and warm_hits = ref 0
  and misses = ref 0
  and failed = ref 0 in
  let results =
    List.mapi
      (fun i job ->
        (match results.(i) with
         | Ok { source = Cache_hit; _ } -> incr hits
         | Ok { source = Warm_hit; _ } -> incr warm_hits
         | Ok { source = Computed; _ } -> incr misses
         | Error _ -> incr failed);
        (job.job_name, results.(i)))
      job_list
  in
  let wall_ms = now_ms () -. t0 in
  (* Batch-level stats live in the metrics registry, not on stderr: a
     Null sink means a silent run, a metrics sink renders the table. *)
  Obs.incr obs ~by:n "engine.jobs";
  Obs.incr obs ~by:!failed "engine.failed";
  Obs.gauge obs "engine.domains" (float_of_int domains);
  Obs.observe obs "engine.batch.wall_ms" wall_ms;
  {
    results;
    hits = !hits;
    warm_hits = !warm_hits;
    misses = !misses;
    failed = !failed;
    stopped;
    domains;
    wall_ms;
  }

(* ------------------------------------------------------------------ *)
(* Core-aware placement of a finished batch                            *)
(* ------------------------------------------------------------------ *)

(* Every successful report carries the scalars a task profile needs
   ([peak_k], and [mean_k] from the fixpoint's steady map), so the
   placement sees the same thermal identity the report printed. Failed
   jobs have no profile and are skipped (counted). *)
let placement_of_batch ?(obs = Obs.null) ?gradient_weight ~chip ~policy spec
    (b : batch) =
  Obs.span obs "engine.place"
    ~args:
      [
        ("cores", Obs.Int (Tdfa_alloc.Chip.num_cores chip));
        ("policy", Obs.Str (Tdfa_alloc.Place.policy_name policy));
      ]
    (fun () ->
      let core = Tdfa_alloc.Chip.core chip in
      let tasks =
        List.filter_map
          (fun (name, r) ->
            match r with
            | Ok (rep : report) ->
              Obs.incr obs "engine.place.tasks";
              Some
                (Tdfa_alloc.Task.of_scalars ~params:spec.params ~core ~name
                   ~peak_k:rep.peak_k ~mean_k:rep.mean_k ())
            | Error _ ->
              Obs.incr obs "engine.place.skipped";
              None)
          b.results
      in
      let placement = Tdfa_alloc.Place.run ?gradient_weight chip policy tasks in
      Obs.gauge obs "engine.place.peak_k"
        placement.Tdfa_alloc.Place.peak_k;
      Obs.gauge obs "engine.place.gradient_k"
        placement.Tdfa_alloc.Place.gradient_k;
      placement)
