(** Composition of thermal-aware passes with cost accounting: every pass
    trades cycles (performance) for temperature, and the compromise is
    exactly what §4 says must "be explored at the compiler level".

    The pipeline can also run {e checked}: each pass's output is verified
    by {!Tdfa_verify.Check} and a configurable policy decides what a
    violation means — abort ([Fail]), keep the output but record the
    diagnostics ([Warn]), or discard the pass and continue from the
    pre-pass IR ([Degrade]). Degradation turns a silently-corrupting pass
    into a logged no-op instead of a downstream interpreter crash. *)

open Tdfa_ir
open Tdfa_obs

type violation_policy =
  | Fail  (** raise {!Verification_failed} on the first bad pass *)
  | Warn  (** keep the (ill-formed) output, record the diagnostics *)
  | Degrade  (** discard the pass's output and continue from its input *)

val policy_name : violation_policy -> string

type checks = {
  policy : violation_policy;
  verify : Func.t -> Tdfa_verify.Check.diagnostic list;
}

val checks :
  ?verify:(Func.t -> Tdfa_verify.Check.diagnostic list) ->
  violation_policy -> checks
(** Default [verify] is {!Tdfa_verify.Check.func} (CFG integrity,
    definite assignment, spill-slot balance). *)

exception
  Verification_failed of {
    pass : string;
    diagnostics : Tdfa_verify.Check.diagnostic list;
  }

type status =
  | Applied  (** pass ran (verification clean, or unchecked) *)
  | Warned  (** pass ran but its output failed verification *)
  | Skipped  (** pass output was discarded under [Degrade] *)

type step = {
  pass : string;
  detail : string;
  cycles_after : float;
  status : status;
  diagnostics : Tdfa_verify.Check.diagnostic list;
      (** verification findings on the pass output (empty when clean) *)
}

type t = { func : Func.t; steps : step list }

val start : Func.t -> t

val apply :
  ?obs:Obs.sink ->
  ?checks:checks ->
  t -> name:string -> detail:string -> (Func.t -> Func.t) -> t
(** Without [checks] this is the classic unchecked application. [obs]
    (default [Obs.null]) receives a [pipeline.apply] span around the
    pass (and a [pipeline.verify] span around its verification), one
    [pipeline.pass] event per boundary with the outcome and the cycle
    estimate, and the [pipeline.passes] / [pipeline.skipped] counters.
    @raise Verification_failed under the [Fail] policy. *)

val skipped_passes : t -> string list
(** Names of passes discarded under [Degrade], in order. *)

val static_cycles : Func.t -> float
(** Loop-frequency-weighted cycle estimate (1 cycle per instruction and
    terminator) — the performance-cost metric of the reports. *)

val overhead_percent : t -> float
(** Relative cycle increase of the final function over the original. *)
