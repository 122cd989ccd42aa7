(** The thermal-aware compilation driver: the whole §4 workflow in one
    call, and its only implementation ([tdfa compile] and [tdfa
    optimize] both run it). Optional scalar clean-ups, register
    promotion, an analysis pass to find the critical variables,
    live-range splitting, thermally-guided register assignment,
    thermal-aware scheduling and optional cooling NOPs — ending with a
    final Fig. 2 analysis of the compiled code. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_core

type options = {
  cleanup : bool;  (** fold/cse/copy/dce before the thermal passes *)
  cooling_nops : int;  (** NOPs after each predicted-hot instruction; 0 disables *)
  policy : Policy.t;  (** the final assignment's policy *)
  granularity : int;  (** of every analysis *)
  checks : Pipeline.checks option;
      (** when set, every pass runs checked under the given policy *)
  obs : Tdfa_obs.Obs.sink;
      (** observability sink threaded through every pass, allocation
          and analysis (default [Obs.null]) *)
}

val default_options : options
(** The recommended pipeline: cleanup, promotion, splitting, scheduling,
    thermal-spread assignment at granularity 1; no NOPs, unchecked. *)

val optimize_options : options
(** What [tdfa optimize] runs (before its check and sink settings):
    {!default_options} without clean-ups and with one cooling NOP per
    predicted-hot instruction. *)

type result = {
  func : Func.t;  (** compiled and allocated body *)
  assignment : Assignment.t;
  analysis : Analysis.outcome;  (** final analysis of [func] *)
  critical : Var.t list;  (** critical variables of the input *)
  steps : Pipeline.step list;  (** per-pass static-cycle accounting *)
}

val run : ?options:options -> layout:Layout.t -> Func.t -> result
