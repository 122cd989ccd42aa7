(** Result reuse for unchanged functions in the optimize→analyze loop.

    Every thermal-consuming pass in the pipeline wants fresh analysis
    data, and many of those requests are for a function the previous
    pass left untouched (a pass that found nothing to do, a serve
    [reanalyze] of the resident program). This module answers them from
    the last result: a {!prior} is an [Analysis.outcome] plus a key over
    everything the fixpoint reads and an integrity digest over the
    outcome's states.

    [analyze ~prior] returns the cached outcome ([identity] mode) when
    the prior is intact and the key matches, and otherwise runs
    [Analysis.fixpoint] — so the returned states are bit-identical to a
    cold fixpoint by construction. The key covers the solver settings,
    the global configuration inputs (params, layout, granularity, dt,
    max frequency), the entry label and every block's signature
    ({!func_signature}). *)

open Tdfa_ir
open Tdfa_obs

type prior
(** A cached analysis result, its key and its integrity digest.
    Produced by every {!analyze} call, so re-analyses chain. *)

type mode =
  | Cold  (** no usable prior: the key differs or none was supplied *)
  | Identity  (** nothing the analysis reads changed: cached result *)
  | Corrupt_recording
      (** the prior's states no longer match its integrity digest (bit
          rot, fault injection, a torn hand-off): the cached result is
          discarded and the fixpoint runs cold *)

val mode_name : mode -> string
(** ["cold"], ["identity"] or ["fallback:corrupt-recording"]. *)

type result = {
  outcome : Analysis.outcome;
  prior : prior;  (** this analysis, cached for the next request *)
  mode : mode;
}

val func_signature : Transfer.config -> Func.t -> string Label.Map.t
(** Per block, keyed by label: a canonical encoding of everything the
    block contributes to the analysis — its instructions and terminator
    (hence its successors), execution frequency, and the exact access
    events of every instruction under [config]. Independent of the
    block's position in the function, so permuting the block list
    leaves signatures unchanged; any instruction, successor or access
    edit flips that block's signature. The reuse key covers all of
    them. *)

val prior_intact : prior -> bool
(** Recompute {!Content.outcome} over the cached outcome and compare
    with the digest stored when the prior was made: [false] means the
    result was corrupted after the fact. {!analyze} performs exactly
    this check before any reuse. *)

val poison_prior : seed:int -> prior -> prior
(** Deterministically corrupt one cached thermal state (fault injection
    for the robustness batteries — see
    [Tdfa_verify.Fault.corrupt_recording]). The result fails
    {!prior_intact}, so {!analyze} must run cold rather than return
    garbage. *)

val analyze :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?settings:Analysis.settings ->
  ?core:Analysis.core ->
  ?prior:prior ->
  Transfer.config ->
  Func.t ->
  result
(** Analyse [func], reusing [prior]'s result when nothing it depends on
    changed. The returned states are bitwise-identical to
    [Analysis.fixpoint ?settings config func] in every mode.

    Emits through [obs]: an [incremental.analyze] span, an
    [incremental.mode] event, and one of the counters
    [incremental.cold_runs], [incremental.warm_hits] (identity reuse)
    or [incremental.fallbacks] (corrupt prior). *)
