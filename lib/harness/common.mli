(** Shared experiment plumbing: the standard register file, and the
    allocate → execute → simulate → analyse round trip every experiment
    repeats. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core

val standard_layout : Layout.t
(** 8 x 8 = 64 registers, the RF size of the paper's references. *)

val standard_model : Rc_model.t

type run = {
  kernel : string;
  policy : Policy.t;
  alloc : Alloc.result;
  cycles : int;
  measured : float array;  (** steady-state cell temperatures (RC model) *)
  metrics : Metrics.summary;
}

val run_policy : ?layout:Layout.t -> name:string -> Func.t -> Policy.t -> run
(** Allocate with the policy, interpret, drive the RC model with the
    trace's average power. *)

val cell_fn : Alloc.result -> Var.t -> int option

val analyze_assigned :
  ?granularity:int ->
  ?settings:Analysis.settings ->
  ?analysis_dt_s:float ->
  ?layout:Layout.t ->
  Func.t ->
  Assignment.t ->
  Analysis.outcome
(** Post-assignment thermal data-flow analysis through
    [Tdfa.Driver.run]'s [Assigned] input. *)

val analyze_run :
  ?granularity:int ->
  ?settings:Analysis.settings ->
  ?layout:Layout.t ->
  run ->
  Analysis.outcome
(** Post-assignment thermal data-flow analysis of the allocated
    function. *)

val predicted_cells : Analysis.info -> float array
(** The analysis' steady-map prediction, expanded to cells. *)
