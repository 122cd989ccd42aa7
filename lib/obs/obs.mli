(** Tracing and metrics for the thermal analysis stack.

    The paper's analysis is an iterate-until-delta fixpoint with an
    explicit non-convergence escape hatch, and its cost/fidelity
    trade-off is governed by thermal-state granularity — questions like
    "how many iterations", "where did the time go" and "which cache or
    pool decision fired" are empirical ones. This module is the single
    measurement substrate every layer reports through: spans with
    timestamps and parent nesting, counters/gauges/histograms, and
    structured fixpoint telemetry, all behind a pluggable {!type-sink}.

    The contract every instrumented hot path relies on:

    + {b zero cost when disabled} — the {!null} sink carries no trace
      backend and no metrics registry; {!span} applies its thunk
      directly and every other operation returns without allocating.
    + {b thread safety} — a sink may be shared by the engine's domain
      pool; each sink serialises its backend and registry behind one
      mutex, and events carry the emitting domain's id ([tid]).
    + {b determinism of metrics} — {!metrics_rows} is sorted by metric
      name, so a table over deterministic counters is reproducible
      byte-for-byte (timing histograms are reported but inherently
      noisy).

    {2 Event schema}

    Every event carries [name], a {!phase}, a timestamp [ts_us] in
    microseconds since sink creation, the emitting domain [tid], a
    fresh span [id], the [parent] span id (0 at top level) and a list
    of typed [args]. The {!json_file} sink renders one JSON object per
    event, one per line; the {!chrome_trace} sink renders the
    chrome://tracing [trace_event] array ([ph] "B"/"E"/"X"/"i"/"C"). *)

(** {1 Values and events} *)

(** Argument values attached to events: JSON values, printed by the
    one codec {!Json} (a [Float] that is not finite prints as [null]). *)
type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

(** Event kinds, mirroring the Chrome [trace_event] phases. *)
type phase =
  | Begin  (** span opened ([ph] "B") *)
  | End  (** span closed ([ph] "E") *)
  | Complete of float
      (** retroactive span with an explicit duration in microseconds
          ([ph] "X") — used for intervals that are not lexically
          scoped, e.g. a job's queue wait *)
  | Instant  (** point event ([ph] "i") *)
  | Counter  (** counter sample ([ph] "C") *)

type event = {
  name : string;
  phase : phase;
  ts_us : float;  (** microseconds since the sink was created *)
  tid : int;  (** id of the emitting domain *)
  id : int;  (** span id (fresh per Begin/Complete, 0 otherwise) *)
  parent : int;  (** id of the enclosing span, 0 at top level *)
  args : (string * value) list;
}

(** {1 Sinks} *)

type sink
(** Where instrumentation goes: a trace backend (possibly none) plus an
    optional metrics registry. *)

val null : sink
(** The default sink: no backend, no registry, nothing allocated on any
    instrumentation call. *)

val memory : unit -> sink
(** Records every event in memory (with a registry attached); read them
    back with {!events}. Meant for tests. *)

val json_file : path:string -> sink
(** Structured log: one JSON object per event, one per line, streamed
    to [path]. Call {!close} to flush. @raise Sys_error if [path]
    cannot be created. *)

val chrome_trace : path:string -> sink
(** chrome://tracing-loadable [trace_event] JSON array written to
    [path]. The array is terminated by {!close}; an unclosed file is
    not valid JSON. @raise Sys_error if [path] cannot be created. *)

val metrics_only : unit -> sink
(** No trace backend, but counters/gauges/histograms are recorded —
    the [--metrics] sink of the CLI. *)

val tracing : sink -> bool
(** Whether span/instant/counter events reach a backend. [false] for
    {!null} and {!metrics_only}. *)

val metering : sink -> bool
(** Whether a metrics registry is attached. *)

val close : sink -> unit
(** Flush and close file-backed sinks (terminating the Chrome array).
    Harmless on every other sink, and idempotent. *)

val events : sink -> event list
(** Events recorded so far, in emission order — non-empty only for
    {!memory} sinks. *)

(** {1 Tracing} *)

val now_us : sink -> float
(** Microseconds since the sink was created (0.0 on a non-tracing
    sink). *)

val span : sink -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] wraps [f ()] in a Begin/End pair; the End is
    emitted even if [f] raises. Spans nest: events emitted inside [f]
    on the same domain carry this span's id as [parent]. On a
    non-tracing sink this is exactly [f ()]. *)

val instant : sink -> ?args:(string * value) list -> string -> unit
(** Point event at the current time. *)

val complete :
  sink -> ?args:(string * value) list -> name:string -> ts_us:float ->
  dur_us:float -> unit -> unit
(** Retroactive span: an interval [ts_us, ts_us + dur_us) recorded
    after the fact (Chrome phase "X"). For intervals that cross lexical
    scopes, e.g. queue waits. *)

(** {1 Metrics}

    All three recorders are no-ops without a registry ({!metering}
    [= false]). Counter increments are additionally mirrored as
    {!Counter} trace events (with the cumulative value) when the sink
    is tracing, so cache hits and similar discrete decisions are
    visible on the timeline. *)

val incr : sink -> ?by:int -> string -> unit
(** Bump a monotonic counter (default [by] 1). *)

val gauge : sink -> string -> float -> unit
(** Set a last-value-wins gauge. *)

val observe : sink -> string -> float -> unit
(** Record one sample into a histogram (count/min/mean/max). *)

val metrics_rows : sink -> (string * string) list
(** [(name, rendered value)] for every metric, sorted by name; [[]]
    without a registry. *)

val print_metrics : ?oc:out_channel -> sink -> unit
(** End-of-run table (default on stderr): a [metrics:] header followed
    by one aligned row per metric. Prints nothing without a registry. *)

(** {1 Fixpoint telemetry}

    Structured events for the paper's iterate-until-delta analysis, so
    a trace answers "how many iterations, how did the residual move,
    which recovery rung converged" without printf debugging. *)

module Fixpoint : sig
  val iteration :
    sink -> iteration:int -> max_delta_k:float -> delta_k:float ->
    unstable:int -> unit
  (** One analysis sweep: the iteration number, the largest
      per-instruction change it produced, the convergence threshold
      and how many instructions still exceed it. *)

  val verdict :
    sink -> converged:bool -> iterations:int -> final_delta_k:float -> unit
  (** Final verdict of one fixpoint run; also counts
      [analysis.runs], [analysis.diverged] and observes the
      [analysis.iterations] histogram. *)

  val escape_hatch : sink -> iterations:int -> unstable:int -> unit
  (** The bounded-iteration escape hatch fired (§4's "reasonable
      number of iterations"); also counts [analysis.escape_hatch]. *)

  val rung :
    sink -> fallback:string -> converged:bool -> iterations:int -> unit
  (** One recovery-ladder attempt ([Analysis.fallback], by name); also
      counts [analysis.recovery.rungs]. *)
end
