(** The single entry-point facade of the analysis stack.

    One [run] over one {!config} record, so every knob — analysis
    settings, allocation policy, divergence recovery, observability
    sink — is set in exactly one place and threads uniformly through
    allocation, analysis and recovery. {!input} is the closed set of
    ways to run the analysis.

    [run] is pure in the same sense as the batch engine requires:
    everything it reads is in the {!config} and the {!input}, so
    independent calls can run on separate domains and a call is
    reproducible from its arguments alone (the [obs] sink is the one
    deliberate effect channel).

    Besides [run], the same {!config} and {!input} feed {!predict}
    (certified bounds instead of the analysis maps) and {!place}
    (thermal profiles onto a multi-core chip): every front end — CLI,
    serve, lint, the optimisation pipeline, the batch engine — reaches
    the fixpoint through this module. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core
open Tdfa_obs

type config = {
  settings : Analysis.settings;  (** delta, iteration cap, join *)
  policy : Policy.t;  (** register-assignment policy *)
  recover : bool;  (** climb the divergence-recovery ladder *)
  granularity : int;  (** thermal-state granularity *)
  params : Params.t;  (** technology/thermal coefficients *)
  analysis_dt_s : float option;  (** [None] = solver default *)
  layout : Layout.t;  (** register-file floorplan *)
  obs : Obs.sink;  (** observability sink, {!Obs.null} by default *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation token, polled at fixpoint-iteration
          boundaries (request deadlines, SIGINT draining); a tripped
          token makes {!run} raise {!Analysis.Cancelled} *)
  core : Analysis.core;
      (** which sweep engine runs the fixpoint ({!Analysis.Flat} by
          default) — both produce bit-identical outcomes *)
}

val default : layout:Layout.t -> config
(** First-fit policy, granularity 1, {!Analysis.default_settings},
    [Params.default], default dt, no recovery, {!Obs.null}. *)

(** The boundary checks on user-supplied knobs, shared by the CLI flags
    and the serve protocol; the error names the rejected value. *)

val check_granularity : int -> (unit, string) result
(** A thermal-state granularity below 1 is an error. *)

val check_delta : float -> (unit, string) result
(** A convergence threshold (K) that is negative or not finite is an
    error. *)

(** What to analyse — the closed set of input shapes. {!Trace} admits
    measured access streams that never were IR at all (see
    [Tdfa_trace]). *)
type input =
  | Unallocated of Func.t
      (** allocate registers with [config.policy] first, then analyse
          the rewritten function *)
  | Assigned of Func.t * Assignment.t
      (** post-RA: registers are known exactly *)
  | Configured of Transfer.config * Func.t
      (** a prebuilt transfer configuration; under
          [recover], coarser ladder rungs reuse this configuration
          unchanged since its granularity cannot be rebuilt *)
  | Warm_start of {
      func : Func.t;
      assignment : Assignment.t;
      prior : Incremental.prior option;
    }
      (** like {!Assigned}, but analysed through
          {!Incremental.analyze}: with [prior = Some p] the cached
          result is returned when nothing the analysis reads changed,
          and the fixpoint runs cold otherwise (bit-identical either
          way). [result.incremental] carries the new prior to chain
          into the next run. *)
  | Trace of {
      func : Func.t;
          (** carrier function whose instructions stand for trace
              windows (one per window, in block order) — the fixpoint
              iterates over it like any other function *)
      accesses : Label.t -> int -> Access.event list;
          (** the measured access-event stream: the events of the
              window carried by instruction [index] of block [label]
              (weights aggregate repeated same-cell accesses) *)
    }
      (** a sampled access stream compiled onto a carrier function (no
          variables, no register assignment — the cells come straight
          from the address mapping): every block runs at frequency 1,
          terminators access nothing. Built by [Tdfa_trace.Compile];
          under [recover], coarser rungs rebuild the transfer
          configuration at the requested granularity like {!Assigned}
          does. *)

type result = {
  alloc : Alloc.result option;
      (** [Some] iff the input was {!Unallocated} *)
  outcome : Analysis.outcome;
      (** of the reported rung ([recovery.used] when recovering) *)
  recovery : Analysis.recovery option;
      (** [Some] iff [config.recover] — for {!Warm_start} inputs, only
          when the primary run diverged and the ladder ran *)
  incremental : Incremental.result option;
      (** [Some] iff the input was {!Warm_start}: the next-run prior
          and the reuse mode *)
}

val transfer_config : config -> Func.t -> Assignment.t -> Transfer.config
(** Wire a function and a register assignment into the per-instruction
    transfer function: loop-frequency-weighted duty cycling, exact
    accessed registers (§4: the analysis "makes the most sense if
    applied after register assignment"). *)

val input_func : input -> Func.t
(** The function an input names, before any allocation. *)

(** An input made ready to analyse: registers allocated when the input
    asked for it, and the transfer configuration at any granularity. *)
type prepared = {
  pre_alloc : Alloc.result option;
      (** [Some] iff the input was {!Unallocated} *)
  func : Func.t;  (** the function to analyse, after allocation *)
  config_of : granularity:int -> Transfer.config;
      (** rebuilt per recovery rung; constant for {!Configured} *)
}

val config_of_input : config -> input -> prepared
(** The one place a transfer configuration is built from an {!input}:
    {!transfer_config} for assigned inputs (allocating first, in a
    [driver.allocate] span, for {!Unallocated}), the prebuilt one for
    {!Configured}, and frequency-1 stream events with silent
    terminators for {!Trace}. {!run} and {!predict} both go through
    it. *)

val run : config -> input -> result
(** The one entry point. Emits, through [config.obs]: a [driver.run]
    span wrapping everything, a [driver.allocate] span (plus the
    allocator's phase spans) for {!Unallocated} inputs, the analysis
    fixpoint telemetry of {!Analysis.fixpoint}, and the
    [analysis.recovery.rung] events of {!Analysis.recovery_ladder}
    when [recover] is set.

    @raise Failure if register allocation cannot colour the function
    (see [Tdfa_regalloc.Alloc.allocate]). *)

val outcome : result -> Analysis.outcome
(** Convenience projection of {!result.outcome}. *)

val predict : config -> input -> Tdfa_absint.Absint.t
(** Certified [lo, hi] steady-state bounds ({!Tdfa_absint.Absint.predict})
    instead of the analysis maps: the stopped fixpoint below, a verified
    post-fixpoint above, under [config.settings]' delta and iteration
    cap. Accepts the same inputs as {!run} (allocation still happens for
    {!Unallocated}) and emits one [driver.predict] span around the
    fixpoint and the certificate check. *)

(** The jobs' thermal profiles placed onto an N-core chip. *)
type placed = {
  profiles : Tdfa_alloc.Task.t list;
      (** per input, in submission order — names from the carrier
          functions *)
  chip : Tdfa_alloc.Chip.t;  (** the chip the profiles were placed on *)
  placement : Tdfa_alloc.Place.placement;
      (** carries the round-robin baseline peak it was guarded against *)
}

val place :
  ?geometry:int * int ->
  ?policy:Tdfa_alloc.Place.policy ->
  config ->
  input list ->
  placed
(** Analyse every input exactly as {!run} would (allocation included),
    fold each fixpoint outcome into a {!Tdfa_alloc.Task.t} and place the
    multiset onto a [geometry] (rows, cols; default 2x2) chip whose
    cores carry [config.layout], with [policy] (default greedy).
    [config.cancel] bounds the annealer as well as the fixpoints. Emits
    one [driver.place] span. *)
