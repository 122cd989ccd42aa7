(** Certified steady-temperature brackets from the Fig. 2 fixpoint itself.

    On states at or above ambient one sweep of the analysis
    ({!Tdfa_core.Flat_core.pass}) is a monotone map [F] of the exit
    states, provided the cooling coefficient is at most 1, the diffusion
    coefficient times the point degree (at most 4) is at most 1, and the
    join is monotone ([Max], the default, is used here). Heating, the
    linearised leakage, the diffusion and cooling convex combinations and
    the join then all preserve order, and the all-ambient start satisfies
    [start <= F start]. Two classic facts follow:

    {b Lower bound (Kleene).} The iterates [T_0 = start],
    [T_(k+1) = F T_k] rise monotonically and stay below every fixpoint
    above [start], in particular below the limit — whether the run
    stopped on the [delta_k] test or on the iteration cap. The stopped
    run's per-cell peak map is therefore [lo_cells], bit for bit the
    {!Tdfa_core.Analysis.peak_map} of the same fixpoint: both are
    {!Tdfa_core.Flat_core.peak_rows} of its state rows.

    {b Upper bound (Knaster–Tarski).} Any [u >= start] with [F u <= u]
    lies above every iterate, hence above the limit and above any
    tighter-[delta] run. The candidate lifts the stopped exits to
    [u = T_k + alpha * max(0, T_k - T_(k-1)) + beta] and checks it with
    one more sweep ({!Tdfa_core.Flat_core.post_fixpoint}); the per-cell
    maximum of that sweep's instruction states, plus a 1e-3 K float
    slack, is [hi_cells]. [alpha] extrapolates the geometric tail from
    the ratio of the last two sweep deltas; [beta] tries 0, then
    [m/32 .. m/2] and finally [m] alone (with [alpha = 0]), where
    [m = nu * delta / (1 - nu)] is the contraction margin of a
    [nu]-Lipschitz step. At most seven certificate sweeps run; when none
    passes, [hi_cells] is [infinity] and the verdict rests on [lo]
    alone. Outside the monotone regime nothing is certified:
    [lo_cells] is [neg_infinity] and [hi_cells] [infinity].

    Soundness (per-cell containment of the stopped fixpoint and of a
    [delta = 1e-6] reference run, on random programs and every example
    kernel) and the lift-monotonicity lemma are tested in
    [test/test_absint.ml]. *)

open Tdfa_ir
open Tdfa_obs

type stats = {
  iterations : int;  (** sweeps of the fixpoint behind [lo_cells] *)
  certify_sweeps : int;  (** certificate sweeps tried (0 to 7) *)
  lift_alpha : float;
      (** tail factor of the accepted lift (0 when none passed) *)
}

type t = {
  ambient_k : float;
  margin_k : float;
      (** uniform part [beta] of the accepted lift (0 when none passed) *)
  lo_cells : float array;  (** per-cell certified lower bound on the
                               limit's peak map *)
  hi_cells : float array;  (** per-cell certified upper bound *)
  peak_lo_k : float;  (** lower bound on the peak temperature *)
  peak_hi_k : float;  (** upper bound on the peak temperature *)
  stats : stats;
}

val certify :
  ?obs:Obs.sink ->
  settings:Tdfa_core.Analysis.settings ->
  Tdfa_core.Transfer.config ->
  Func.t ->
  Tdfa_core.Analysis.outcome ->
  t
(** [certify ~settings cfg func outcome] is the bracket around
    [outcome], the {!Tdfa_core.Analysis.fixpoint} of [cfg] and [func]
    under [settings] (however it was obtained — computed now or kept
    from an earlier request): [lo_cells] from its state rows, and at
    most seven certificate sweeps lifted from its exit rows and its
    lift inputs ({!Tdfa_core.Analysis.info}'s [prev_exits] and
    [prev_delta_k]) on a fresh workspace. The certificate sweep loads
    every exit row and recomputes every block, so the result is bitwise
    the one {!predict} computes from the same fixpoint. [obs] receives
    the workspace's [analysis.prepare] span and one [absint.certify]
    instant with the attempt count and whether a certificate was
    found. *)

val predict :
  ?obs:Obs.sink ->
  ?delta_k:float ->
  ?max_iterations:int ->
  Tdfa_core.Transfer.config ->
  Func.t ->
  t
(** Certified [\[lo, hi\]] steady-state peak bounds per RF cell:
    {!Tdfa_core.Analysis.fixpoint} at [delta_k]/[max_iterations]
    (defaults: {!Tdfa_core.Analysis.default_settings}) followed by
    {!certify}, whose sweeps reuse the fixpoint's workspace. [obs]
    (default {!Obs.null}) receives the fixpoint's [analysis.prepare]
    and [analysis.fixpoint] spans and the [absint.certify] instant. *)

val settings :
  ?delta_k:float -> ?max_iterations:int -> unit -> Tdfa_core.Analysis.settings
(** The fixpoint settings {!predict} runs under:
    {!Tdfa_core.Analysis.default_settings} (join [Max]) with the given
    delta and iteration cap. *)

type verdict = Certified_hot | Straddles | Certified_cool

val verdict : hot_k:float -> t -> verdict
(** [Certified_hot] iff [peak_lo_k >= hot_k] (no false positives),
    [Certified_cool] iff [peak_hi_k < hot_k] (no false negatives),
    [Straddles] otherwise. *)

val verdict_name : verdict -> string

val certified_hot_cells : hot_k:float -> t -> int list
(** Cells whose lower bound already clears the threshold. *)

val possibly_hot_cells : hot_k:float -> t -> int list
(** Cells whose upper bound clears the threshold. *)
