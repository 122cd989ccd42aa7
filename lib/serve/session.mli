(** One client session of the serve daemon: the resident program, its
    resident analysis (the last incremental result and the program's
    allocations), and a bounded log of the requests that built that
    state.

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
      (** result of the last incremental analysis: [reanalyze] returns
          it and [predict] and [lint] certify their bounds from it when
          its key matches theirs *)
  mutable allocations :
    (Func.t * Tdfa_regalloc.Policy.t option * Render.allocation) list;
      (** the resident program's allocations by policy ([None]: the
          pre-RA placement); read through {!allocation} *)
  mutable log : Protocol.request list;  (** newest first, bounded *)
  mutable served : int;
  mutable crashes : int;  (** quarantine count *)
}

val create : ?max_log:int -> string -> t
(** Fresh session, [max_log] defaulting to 8. *)

val allocation :
  ?obs:Tdfa_obs.Obs.sink ->
  t ->
  policy:Tdfa_regalloc.Policy.t ->
  pre_ra:bool ->
  Func.t ->
  Render.allocation
(** [Render.allocation ?obs ~policy ~pre_ra f], computed once per
    program, policy and mode: later calls for the same [f] (the same
    value, not an equal copy) return the kept one, so [analyze],
    [reanalyze], [predict] and a post-RA [lint] of the resident program
    allocate once. A call for another program drops the allocations
    kept for the previous one. *)

val drop_analysis : t -> unit
(** Forget the resident analysis — the prior and the allocations — as
    when a new program becomes resident. *)

val record : t -> Protocol.request -> unit
(** Count the request and, for state-building ops
    (analyze/reanalyze/lint), push it onto the bounded log. *)

val quarantine : t -> unit
(** Crash-only teardown: drop the resident program and its analysis,
    count the crash. The log survives — it is the rebuild recipe. *)

val log_oldest_first : t -> Protocol.request list
(** The replay order for a rebuild. *)
