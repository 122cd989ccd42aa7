(** Shared analyze/lint rendering: the single source of truth for what
    the one-shot CLI prints to stdout {e and} what the serve daemon
    ships in a response frame's [output] field.

    The serve protocol promises byte-identical responses to the CLI;
    rather than proving two printers equal, there is one printer, and
    the cram suite pins its text from both entry points. *)

open Tdfa_ir
open Tdfa_regalloc
open Tdfa_obs

type allocation = {
  func : Func.t;  (** the function to analyse (spill code included) *)
  assignment : Assignment.t;
  loops : Tdfa_dataflow.Loops.t;  (** of [func] *)
  mode : string;  (** the report's mode phrase *)
}
(** What {!analyze} and {!predict} analyse: the registers of a function
    under one policy, or its predicted placement. *)

val allocation :
  ?obs:Obs.sink -> policy:Policy.t -> pre_ra:bool -> Func.t -> allocation
(** Allocate on the standard 8x8 file with [policy] (the allocator's
    spans go to [obs]), or under [pre_ra] predict the placement of the
    original function; [policy] is then unused. Deterministic: equal
    arguments give equal allocations, which is what lets a serve
    session keep one per policy and mode for its resident program. *)

val analyze :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?prior:Tdfa_core.Incremental.prior ->
  ?allocation:allocation ->
  policy:Policy.t ->
  granularity:int ->
  delta:float ->
  pre_ra:bool ->
  recover:bool ->
  incremental:bool ->
  Func.t ->
  string * Tdfa.Driver.result
(** Allocate (or predict placement under [pre_ra]), run the thermal
    fixpoint through {!Tdfa.Driver.run}, and render the full analyze
    report (convergence, recovery ladder when climbed, worst-case
    heatmap, criticality ranking). [cancel] threads a deadline token
    into the fixpoint; [prior] (only meaningful with [incremental]) is
    a resident result, reused when the function is unchanged — results
    are bit-identical to a cold run either way, so the rendered text
    cannot differ. [allocation], when given, is {!allocation} of the
    same [policy], [pre_ra] and function, computed earlier; it is used
    as it is.

    Returns the rendered text and the driver result (whose
    [incremental] field carries the next-run prior).

    @raise Tdfa_core.Analysis.Cancelled when [cancel] trips. *)

val trace :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?window_us:int ->
  policy:Tdfa_trace.Mapping.policy ->
  cells:int ->
  granularity:int ->
  delta:float ->
  recover:bool ->
  Tdfa_trace.Sample.t ->
  string
(** Compile a sampled access stream ({!Tdfa_trace.Compile.compile} with
    the given mapping policy, cell count and window size), run the
    thermal fixpoint over it through {!Tdfa.Driver.run}'s [Trace]
    input, and render the trace report: stream summary (samples,
    windows, cells touched), convergence, the predicted worst-case
    heatmap on the near-square layout for [cells], and the RC
    simulator's measured steady peak over the same windows — the
    analysis-vs-measurement cross-check every trace run gets for free.
    Returns only the text, so the fixpoint's states can be collected
    before the RC solve runs.

    @raise Tdfa_core.Analysis.Cancelled when [cancel] trips. *)

val predict :
  ?obs:Obs.sink ->
  ?prior:Tdfa_core.Incremental.prior ->
  ?allocation:allocation ->
  policy:Policy.t ->
  granularity:int ->
  delta:float ->
  pre_ra:bool ->
  Func.t ->
  string * Tdfa_absint.Absint.t
(** Allocate (or predict placement under [pre_ra]; [allocation] as in
    {!analyze}) and compute certified [lo, hi] steady-state peak bounds
    through {!Tdfa.Driver.predict}. A [prior] whose key matches this
    request's configuration and settings supplies the fixpoint, which
    then does not run again; the bounds are the same bits either way.
    Renders the verdict against {!Tdfa_lint.Rules.hot_threshold}, the
    upper-bound heatmap and the hottest cells; every printed quantity
    is deterministic, so the daemon ships the same bytes the CLI
    prints. *)

val place :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  policy:Policy.t ->
  granularity:int ->
  delta:float ->
  geometry:int * int ->
  place_policy:Tdfa_alloc.Place.policy ->
  Func.t list ->
  string * Tdfa.Driver.placed
(** Profile every function through {!Tdfa.Driver.place} (allocation +
    thermal fixpoint per job) and allocate the multiset onto a
    [geometry] chip of {!Tdfa_harness.Common.standard_layout} cores
    under [place_policy]. Renders the profiles hottest-first, the
    chosen assignment, the steady core-temperature map and the
    round-robin baseline (the placement's [round_robin_peak_k], scored
    once inside {!Tdfa_alloc.Place.run}). Returns the text and the
    driver's [placed] result (for the CLI's JSON view); every printed
    quantity is deterministic, so the daemon ships the same bytes the
    CLI prints. [cancel] is the deadline token of the profile fixpoints
    and the annealer.
    @raise Tdfa_core.Analysis.Cancelled when [cancel] trips. *)

val lint_report : display:string -> Tdfa_lint.Lint.finding list -> string
(** The per-input text block of [tdfa lint] ([lint <display>: clean] or
    the rendered finding table). *)

val allocate_for :
  ?obs:Obs.sink ->
  post_ra:bool ->
  policy:Policy.t ->
  Func.t ->
  Func.t * Assignment.t option
(** The post-RA prelude of [lint] and [verify]: under [post_ra], the
    function allocated on the standard 8x8 file and its assignment;
    otherwise the function unchanged and no assignment. *)

val lint :
  ?obs:Obs.sink ->
  ?config:Tdfa_lint.Lint.config ->
  ?prior:Tdfa_core.Incremental.prior ->
  ?allocation:allocation ->
  post_ra:bool ->
  policy:Policy.t ->
  Func.t ->
  string * Tdfa_lint.Lint.finding list
(** Build the lint context (allocating first under [post_ra], or taking
    the post-RA [allocation] of the same [policy] when given; a pre-RA
    lint ignores it), run every registered rule, and render with
    {!lint_report} (display = the function's name, as for a [--kernel]
    input). [prior] reaches the bound rules as in
    {!Tdfa_lint.Lint.make_ctx}. *)
