(** The fault-tolerant analysis daemon.

    [tdfa serve] keeps the analysis stack resident behind a Unix
    socket speaking line-delimited JSON ({!Protocol}): each client
    connection is one {!Session} holding the parsed program and its
    last incremental result, so a re-analysis round trip of an
    unchanged program skips parsing and the fixpoint.

    The robustness model, in one place:

    - {b deadlines} — a request's [deadline_ms] (or the server
      default) becomes a cooperative cancellation token polled at
      fixpoint-iteration boundaries; expiry yields a structured
      [deadline] error, never a wedged worker.
    - {b retry} — {!Robust.Transient} failures retry under the
      configured exponential backoff with seeded jitter.
    - {b graceful degradation} — a failed request falls one rung
      (warm [->] cold for analyze/reanalyze, full [->] minimal for
      lint) before reporting a [failed] error; degraded responses are
      marked with their rung, echoing the Fail/Warn/Degrade vocabulary
      of the checked pipeline.
    - {b crash-only sessions} — an exception escaping a handler
      quarantines the session (state dropped on the floor) and
      rebuilds it by replaying its bounded request log minus the
      crashing request; the daemon answers a [session-crash] error and
      keeps running.
    - {b chaos} — a seeded {!Tdfa_verify.Fault.Plan} injects garbage
      frames, disconnects, recording corruption, transients, broken
      IR and handler crashes, so every path above is exercised
      deterministically ([tdfa serve --chaos SEED]).

    Successful analyze/lint responses carry byte-for-byte the text the
    one-shot CLI prints ({!Render} is shared, not duplicated). *)

open Tdfa_obs

type config = {
  deadline_ms : float option;  (** default per-request deadline *)
  backoff : Robust.backoff;  (** transient-retry policy *)
  faults : Tdfa_verify.Fault.Plan.t;  (** chaos plan ([Plan.none] = off) *)
  obs : Obs.sink;
  max_log : int;  (** per-session request-log bound *)
}

val default_config : config
(** No deadline, {!Robust.default_backoff}, no faults, null sink,
    log bound 8. *)

type t = {
  cfg : config;
  injector : Tdfa_verify.Fault.Plan.injector;
  mutable sessions : int;  (** live client connections *)
  mutable served : int;
  mutable crashes : int;  (** sessions quarantined and rebuilt *)
  mutable degraded : int;  (** responses served from a lower rung *)
  mutable shutting_down : bool;
}

val create : ?config:config -> unit -> t

(** What the transport should do with one request line. *)
type outcome =
  | Reply of Json.t  (** write this frame back *)
  | Dropped  (** injected disconnect: close the client *)
  | Shutdown_now of Json.t  (** write the frame, then stop the loop *)

val handle_line : t -> Session.t -> string -> outcome
(** The testable core: everything the daemon does to one request
    except socket I/O — chaos injection, parsing, dispatch, deadlines,
    retries, degradation, crash-only recovery. Never raises; a crash
    in a handler surfaces as a [session-crash] error reply after the
    session is rebuilt. The chaos property suite drives this directly,
    no socket needed. *)

(** The transport's line framing, linear in the bytes received: each
    read is scanned once and only the unfinished frame is kept. A frame
    longer than [max_frame] bytes is reported as [Oversized] as soon as
    it overflows (the daemon answers [bad-request]) and its bytes are
    discarded up to its newline. *)
module Framer : sig
  type frame = Line of string | Oversized
  type t

  val max_frame : int
  (** 64 MiB. *)

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> frame list
  (** [feed t bytes len] takes the first [len] bytes of [bytes] and
      returns the frames they complete, in order (lines without their
      newline). *)
end

val run : ?ready:(unit -> unit) -> t -> socket_path:string -> unit
(** Bind [socket_path] (unlinking any stale file), call [ready] once
    listening, and serve clients from a single-threaded [select] loop
    — one {!Session} per connection, requests answered in order —
    until a [shutdown] request arrives. Closes every client, the
    listener and the socket file on the way out. SIGPIPE is ignored;
    a client that disappears mid-reply is dropped, never fatal. *)
