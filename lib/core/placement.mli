(** Predictive (pre-register-allocation) placement model.

    §4's "more ambitious possibility": run the analysis before register
    allocation, when "there is no information about the layout of the RF
    and the placement of registers". We model the unknown future
    assignment by ranking variables by estimated access weight and
    spreading them round-robin across floorplan regions — the stated
    heuristic of assigning likely-hot variables "to registers in disparate
    regions of the RF". The accuracy lost relative to the real assignment
    is exactly what experiment E7 measures. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc

val predict :
  ?regions_rows:int ->
  ?regions_cols:int ->
  ?loops:Tdfa_dataflow.Loops.t ->
  Func.t ->
  Layout.t ->
  Assignment.t
(** Virtual placement of every variable of [func] (defaults: 2 x 2
    regions). Variables beyond the RF capacity share cells round-robin,
    mimicking the reuse a real allocator would create. [loops] is
    [func]'s loop analysis when the caller already has it. *)
