(** The single entry-point facade of the analysis stack.

    PR 1–2 grew six overlapping ways to run the thermal data-flow
    analysis ([Analysis.run], [Analysis.run_with_recovery],
    [Setup.run_post_ra], [Setup.run_post_ra_with_recovery],
    [Setup.allocate_and_run], [Setup.allocate_and_run_with_recovery]).
    This module collapses them into one [run] over one {!config}
    record, so every knob — analysis settings, allocation policy,
    divergence recovery, observability sink — is set in exactly one
    place and threads uniformly through allocation, analysis and
    recovery. The legacy functions survived as
    thin deprecated wrappers for five releases and are now deleted:
    {!input} is the closed set of ways to run the analysis.

    [run] is pure in the same sense as the batch engine requires:
    everything it reads is in the {!config} and the {!input}, so
    independent calls can run on separate domains and a call is
    reproducible from its arguments alone (the [obs] sink is the one
    deliberate effect channel).

    The library [tdfa] re-exports this module as [Tdfa.Driver]. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_regalloc
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

(** What to analyse — the closed set of input shapes. The first three
    descend from the legacy entry points; {!Warm_start} came with the
    incremental engine, and {!Trace} admits measured access streams
    that never were IR at all (see [Tdfa_trace]). *)
type input =
  | Unallocated of Func.t
      (** allocate registers with [config.policy] first, then analyse
          the rewritten function (ex [Setup.allocate_and_run]) *)
  | Assigned of Func.t * Assignment.t
      (** post-RA: registers are known exactly (ex
          [Setup.run_post_ra]) *)
  | Configured of Transfer.config * Func.t
      (** a prebuilt transfer configuration (ex [Analysis.run]); under
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
    terminators for {!Trace}. [run] and the predict mode both go
    through it. *)

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
