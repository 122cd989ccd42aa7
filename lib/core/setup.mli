(** Program-size helpers shared by the analysis front ends. Transfer
    configurations are built by {!Driver.transfer_config}; the run
    entry points that used to live here are deleted in favour of
    {!Driver.run}, which owns the observability wiring. *)

open Tdfa_ir
open Tdfa_dataflow

val estimated_program_cycles : Func.t -> Loops.t -> float
(** Sum of loop-frequency-weighted instruction counts (terminators
    included), at one cycle each. *)
