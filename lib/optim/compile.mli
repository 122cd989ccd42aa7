(** The thermal-aware compilation driver: the whole §4 workflow in one
    call. Scalar clean-ups, optional unrolling, register promotion, an
    analysis pass to find the critical variables, live-range splitting,
    thermally-guided register assignment, thermal-aware scheduling and
    (optionally) cooling NOPs — ending with a final Fig. 2 analysis of
    the compiled code. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_core

type options = {
  cleanup : bool;
  unroll_factor : int;  (** 1 disables *)
  promote : bool;
  split_critical : bool;
  schedule : bool;
  cooling_nops : int;  (** NOPs after each predicted-hot instruction; 0 disables *)
  policy : Policy.t;
  granularity : int;
  settings : Analysis.settings;
  checks : Pipeline.checks option;
      (** when set, every pass runs checked under the given policy *)
  obs : Tdfa_obs.Obs.sink;
      (** observability sink threaded through every pass, allocation
          and analysis (default [Obs.null]) *)
}

val default_options : options
(** The recommended pipeline: cleanup, promotion, splitting, scheduling,
    thermal-spread assignment; no unrolling, no NOPs, unchecked. *)

type result = {
  func : Func.t;  (** compiled and allocated body *)
  assignment : Assignment.t;
  analysis : Analysis.outcome;  (** final analysis of [func] *)
  critical : Var.t list;  (** critical variables of the input *)
  steps : Pipeline.step list;  (** per-pass static-cycle accounting *)
}

val run : ?options:options -> layout:Layout.t -> Func.t -> result
