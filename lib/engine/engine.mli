(** Parallel batch analysis engine.

    The paper's central cost warning (§3: fidelity scales with
    thermal-state granularity at a steep compute price) becomes an
    engineering problem as soon as many procedures must be analysed:
    the CLI and the harness used to run one fixpoint at a time,
    single-threaded, from scratch. This engine runs a batch of
    functions through the post-RA analysis on a fixed-size pool of
    OCaml domains and memoises results in a content-addressed cache,
    so repeated or incrementally-edited inputs skip the fixpoint
    entirely.

    Two invariants make the engine trustworthy (and testable):

    + {b determinism} — a job's report depends only on its content key
      (function IR, floorplan, granularity, join policy, allocation
      policy, thermal parameters). Reports are returned in submission
      order, and a run with [jobs = n] is byte-identical to [jobs = 1].
    + {b exactness of the cache} — a cache hit returns exactly the
      report a fresh computation would produce; the differential
      property suite pins both invariants down.

    Every job is verified with {!Tdfa_verify.Check.func} before it is
    analysed; structurally broken IR fails that job (with the first
    diagnostic in the message) without disturbing the rest of the
    batch. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core
open Tdfa_obs

(** {1 Job specification} *)

type spec = {
  policy : Policy.t;  (** register-assignment policy *)
  granularity : int;  (** thermal-state granularity *)
  settings : Analysis.settings;
  params : Params.t;  (** technology/thermal coefficients *)
  analysis_dt_s : float option;  (** [None] = solver default *)
  recover : bool;  (** climb the divergence-recovery ladder *)
}

val default_spec : spec
(** First-fit, granularity 1, {!Analysis.default_settings},
    {!Params.default}, default dt, no recovery. *)

type stream = {
  stream_id : string;
      (** content digest of the compiled sample stream
          ([Tdfa_trace.Compile.stream_id]) — the part of the job's
          identity the carrier IR alone cannot express, since every
          trace compiles to the same Nop skeleton *)
  accesses : Label.t -> int -> Access.event list;
}

type job = {
  job_name : string;
  func : Func.t;
  parent : Func.t option;
      (** the function this one was edited from, if any: when the batch
          runs with a {!Warm} store holding the parent's result, the job
          reuses it when its allocated IR is unchanged instead of
          running the fixpoint *)
  stream : stream option;
      (** [Some _] makes this a trace job: the engine feeds the driver
          a [Trace] input — no register allocation, no warm path — and
          the report's allocation fields ([spilled], [max_pressure])
          are 0 *)
}

val job : ?parent:Func.t -> string -> Func.t -> job
(** [job name func] with [parent] defaulting to [None] (an IR job). *)

val trace_job :
  stream_id:string ->
  accesses:(Label.t -> int -> Access.event list) ->
  string ->
  Func.t ->
  job
(** A trace job over a compiled stream's carrier function. *)

(** {1 Reports} *)

type source =
  | Computed
  | Cache_hit
  | Warm_hit
      (** answered from the parent's cached result (the report is
          still bit-identical to a cold computation) *)

type report = {
  name : string;
  key : string;  (** content address of the job (hex digest) *)
  instrs : int;
  blocks : int;
  spilled : int;
  max_pressure : int;
  converged : bool;
  iterations : int;
  final_delta_k : float;
  peak_k : float;  (** peak of the predicted worst-case map *)
  mean_k : float;  (** mean of the predicted steady map *)
  rung : string;  (** recovery-ladder rung used ("primary" otherwise) *)
  fingerprint : string;
      (** digest of the complete per-point analysis output — two runs
          agree on every thermal point iff their fingerprints match *)
  source : source;
  wall_ms : float;
}

val same_result : report -> report -> bool
(** Field-wise equality ignoring provenance ([source], [wall_ms]) — the
    relation the cache and the parallel scheduler must preserve. *)

type batch = {
  results : (string * (report, string) result) list;
      (** per job, in submission order; [Error] carries the failure *)
  hits : int;
  warm_hits : int;  (** answered from a parent's cached result *)
  misses : int;  (** jobs computed cold *)
  failed : int;
  stopped : bool;
      (** the [stop] token tripped before the queue drained; the jobs
          never claimed are reported as [Error "interrupted before
          start"] (in-flight jobs always finish) *)
  domains : int;  (** pool size used *)
  wall_ms : float;
}

(** {1 Content addressing} *)

val digest_key : layout:Layout.t -> spec -> Func.t -> string
(** Hex digest ({!Tdfa_core.Content.digest}) of every input the analysis
    result depends on: the function IR, the floorplan and all [spec]
    knobs. Any differing component yields a different key, so cache
    invalidation is structural — a stale entry can never be addressed
    again. *)

val job_key : layout:Layout.t -> spec -> job -> string
(** The key a batch run addresses the job's cache entry by:
    {!digest_key} for IR jobs, and the digest of the same inputs plus
    the [stream_id] for trace jobs. *)

val fingerprint : Analysis.outcome -> string
(** {!Tdfa_core.Content.outcome}: the digest of the convergence status,
    iteration count, last-round change, every per-instruction state,
    every exit state and the unstable instructions. *)

(** {1 Result cache} *)

module Cache : sig
  type t

  val in_memory : unit -> t
  (** Mutex-protected table, shared by the pool within one process. *)

  val on_disk : dir:string -> t
  (** Persistent cache: one framed entry per key under [dir] (created
      if missing) — a format-magic line, the payload's digest, then the
      marshalled report. Entries from an incompatible format version
      are treated as misses; entries whose payload fails its digest
      (truncated by a crashed writer, bit-rotted, fault-injected) are
      {e quarantined} to [dir/.quarantine/] and recomputed, never
      fatal. Writes are atomic (temp file + [fsync] + rename), so
      concurrent batches sharing a directory never observe a torn
      entry. *)

  val find : ?obs:Obs.sink -> t -> string -> report option
  (** Look up a key. [obs] (default [Obs.null]) receives one
      [engine.cache.read] instant per on-disk probe, plus
      [engine.cache.stale] / [engine.cache.torn] instants (and matching
      counters) when an entry is discarded for a format-version
      mismatch or a corrupt file. A corrupt entry additionally emits
      [engine.cache.quarantine] (counter [engine.cache.quarantined])
      after being moved to [.quarantine/]. *)

  val store : ?obs:Obs.sink -> t -> string -> report -> unit
  (** Insert a report. On-disk stores emit one [engine.cache.write]
      instant (and bump the [engine.cache.writes] counter) through
      [obs] after the atomic rename. *)

  val sync : t -> unit
  (** Flush the cache directory entry to stable storage ([fsync] on the
      directory; no-op in memory). The SIGINT drain path calls this so
      every entry renamed into place survives the interrupt. *)
end

(** {1 Warm-start store} *)

module Warm : sig
  type t
  (** Mutex-protected in-memory map from content key to the
      {!Tdfa_core.Incremental.prior} recorded when that function was
      analysed — the warm-reuse complement of {!Cache}: where the cache
      only hits on byte-identical IR, the warm store lets a child job
      reuse its parent's result when the edit left the allocated IR
      unchanged (any change to what the analysis reads runs cold). *)

  val create : unit -> t
  val find : t -> string -> Tdfa_core.Incremental.prior option
  val store : t -> string -> Tdfa_core.Incremental.prior -> unit
end

(** {1 Running} *)

val analyze_job :
  ?obs:Obs.sink -> ?warm:Warm.t -> layout:Layout.t -> spec -> job -> report
(** Verify, allocate and analyse one job on the calling domain, no
    cache. The verification gate runs inside an [engine.verify] span
    (rejections count [engine.verify.rejections]); allocation and the
    fixpoint are delegated to {!Tdfa.Driver.run} with the same
    [obs], so the job's trace nests driver, regalloc and fixpoint
    spans. @raise Failure when the IR fails verification. *)

val run_batch :
  ?obs:Obs.sink ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?warm:Warm.t ->
  ?stop:(unit -> bool) ->
  ?watchdog_ms:float ->
  ?faults:Tdfa_verify.Fault.Plan.injector ->
  layout:Layout.t ->
  spec ->
  job list ->
  batch
(** Run every job and collect reports in submission order. [jobs]
    (default 1) bounds the domain-pool size; it is clamped to the batch
    length. Jobs are drained from a shared queue, each job is looked up
    in [cache] first, and a failing job (verifier rejection, allocator
    failure) is reported in place without aborting the batch.

    Robustness controls:

    - [stop] is a cooperative stop token polled before each claim
      (never mid-job): when it trips, in-flight jobs drain normally and
      the never-claimed remainder is reported as interrupted with
      [batch.stopped = true] (counter [engine.jobs.skipped]). The
      SIGINT handlers of [tdfa batch]/[tdfa analyze] use this to exit
      cleanly with partial results.
    - [watchdog_ms] arms a supervisor domain that samples per-worker
      heartbeats: a worker sitting on one claimed job longer than the
      budget is presumed wedged, and its job is re-run on a replacement
      domain that then joins the queue (at most one rescue per job;
      [engine.watchdog.replaced] counts them). Determinism makes the
      double execution harmless — both runs produce the same report.
    - [faults] injects seeded chaos at the two engine sites of the
      plan: [worker-stall] wedges a worker for the plan's [stall-ms]
      before a job (exercising the watchdog), and [torn-cache] forces a
      cache probe to behave as a torn read (counter
      [engine.cache.injected_torn]).

    Scheduling telemetry goes to [obs] (default [Obs.null], i.e.
    silence): per job one [engine.job.wait] Complete span (submission
    to claim), one [engine.job] span around the work, and the
    [engine.cache.hits] / [engine.cache.misses] counters; per batch the
    [engine.jobs] / [engine.failed] counters, the [engine.domains]
    gauge and the [engine.job.wall_ms] / [engine.batch.wall_ms]
    histograms. With a {!Obs.null} sink the batch writes nothing to
    stderr — stats rendering is the caller's choice via
    {!Obs.print_metrics}. *)

(** {1 Core-aware placement} *)

val placement_of_batch :
  ?obs:Obs.sink ->
  ?gradient_weight:float ->
  chip:Tdfa_alloc.Chip.t ->
  policy:Tdfa_alloc.Place.policy ->
  spec ->
  batch ->
  Tdfa_alloc.Place.placement
(** Fold a finished batch's successful reports into task profiles
    ({!Tdfa_alloc.Task.of_scalars} over each report's fixpoint
    [peak_k]/[mean_k]) and place the multiset onto
    [chip] under [policy]. Failed jobs are skipped. Telemetry through
    [obs]: an [engine.place] span, [engine.place.tasks] /
    [engine.place.skipped] counters and the [engine.place.peak_k] /
    [engine.place.gradient_k] gauges of the chosen placement. *)
