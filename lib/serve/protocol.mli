(** The serve wire protocol: line-delimited JSON over a Unix socket.

    One request per line, one response line per request, in order.
    Request fields mirror the CLI flags of the corresponding subcommand
    ([policy], [granularity], [delta], [pre_ra], [recover],
    [incremental], [post_ra]) with the same defaults, plus [id] (echoed
    back), [kernel]/[ir] to name the program, and [deadline_ms]. A
    successful response carries the exact text the one-shot CLI would
    print in its [output] field. *)

open Tdfa_regalloc

type op =
  | Analyze
  | Reanalyze
  | Predict
  | Place
  | Lint
  | Trace
  | Status
  | Shutdown

val op_name : op -> string
val op_of_string : string -> op option

type request = {
  id : string;  (** echoed in the response; "" when absent *)
  op : op;
  kernel : string option;  (** built-in kernel name *)
  ir : string option;  (** inline textual IR (TC not supported here) *)
  policy : Policy.t;
  granularity : int;
  delta : float;
  pre_ra : bool;
  recover : bool;
  incremental : bool;
  post_ra : bool;  (** lint: allocate first *)
  trace : string option;
      (** trace: the sampled access stream, inline (the same text a
          [tdfa trace] input file holds — JSON escaping keeps it one
          frame line) *)
  map : Tdfa_trace.Mapping.policy;  (** trace: address-to-cell mapping *)
  cells : int;  (** trace: RF cell count (default 64) *)
  window_ms : float;  (** trace: discretisation window (default 1.0) *)
  deadline_ms : float option;  (** per-request deadline override *)
  kernels : string option;
      (** place: comma-separated kernel names; [None] = all built-ins
          (the CLI default) *)
  cores : string;  (** place: chip geometry ROWSxCOLS (default "2x2") *)
  place : string;  (** place: allocation policy (default "greedy") *)
  sa_iters : int;  (** place: annealing iterations (default 2000) *)
  seed : int;  (** place: annealing seed (default 0) *)
}

val request_of_json : Json.t -> (request, string) result
(** Fields absent or of the wrong type take their defaults. An unknown
    op, policy or map, a granularity below 1, or a delta that is
    negative or not finite is an error (the knobs through the CLI's own
    checks, [Tdfa.Driver.check_granularity] and [check_delta]). *)

val request_of_line : string -> (request, string) result

(** {1 Responses} *)

val ok_response :
  ?extra:(string * Json.t) list ->
  id:string ->
  op:op ->
  output:string ->
  unit ->
  Json.t
(** [{"id", "ok": true, "op", "output"}] plus [extra] fields (warm/cold
    mode, degradation rung, attempt count). *)

type error_kind =
  | Bad_request  (** unparseable frame or unusable input *)
  | Deadline  (** the per-request deadline expired mid-analysis *)
  | Transient_exhausted  (** retries with backoff did not cure it *)
  | Invalid_ir  (** the verifier rejected the program *)
  | Session_crashed  (** handler crashed; session quarantined+rebuilt *)
  | Failed  (** every degradation rung failed *)

val error_kind_name : error_kind -> string

val error_response :
  ?extra:(string * Json.t) list ->
  id:string ->
  kind:error_kind ->
  message:string ->
  unit ->
  Json.t
(** [{"id", "ok": false, "kind", "error"}] plus [extra]. *)
