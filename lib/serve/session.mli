(** One client session of the serve daemon: the resident program, its
    last incremental result, and a bounded log of the requests that built
    that state.

    Sessions are {e crash-only}: there is no careful shutdown or
    repair path. When a handler crashes, the server calls
    {!quarantine} — dropping every piece of resident state on the
    floor — and rebuilds by replaying {!log_oldest_first} through the
    normal request path with responses discarded. Recovery and
    construction are the same code, so the rebuilt session cannot be
    subtly different from a fresh one. *)

open Tdfa_ir

type t = {
  name : string;  (** for telemetry ("client-3") *)
  max_log : int;  (** request-log bound (replay cost cap) *)
  mutable func : Func.t option;  (** resident parsed program *)
  mutable prior : Tdfa_core.Incremental.prior option;
      (** result of the last analysis, reused by [reanalyze] *)
  mutable log : Protocol.request list;  (** newest first, bounded *)
  mutable served : int;
  mutable crashes : int;  (** quarantine count *)
}

val create : ?max_log:int -> string -> t
(** Fresh session, [max_log] defaulting to 8. *)

val record : t -> Protocol.request -> unit
(** Count the request and, for state-building ops
    (analyze/reanalyze/lint), push it onto the bounded log. *)

val quarantine : t -> unit
(** Crash-only teardown: drop the resident program and recording,
    count the crash. The log survives — it is the rebuild recipe. *)

val log_oldest_first : t -> Protocol.request list
(** The replay order for a rebuild. *)
