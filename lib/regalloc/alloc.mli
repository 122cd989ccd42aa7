(** Top-level register allocation: colouring with iterated spilling until
    everything fits the register file. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_obs

type result = {
  func : Func.t;  (** possibly rewritten with spill code *)
  assignment : Assignment.t;
  spilled : Var.Set.t;  (** union over all spill rounds *)
  rounds : int;  (** colouring attempts (1 = no spilling needed) *)
  max_pressure : int;  (** of the final function *)
  loops : Tdfa_dataflow.Loops.t;
      (** of the final function: hand it to the transfer configuration
          instead of analysing the same code again *)
}

val default_weights : ?loops:Tdfa_dataflow.Loops.t -> Func.t -> Var.t -> float
(** Loop-frequency-weighted access count, equal bit for bit to
    {!Use_def.weighted_access_count}: each block's frequency is computed
    once and every variable's sums in one pass over the function.
    [loops], when given, is [func]'s loop analysis. *)

val allocate :
  ?obs:Obs.sink ->
  ?max_rounds:int ->
  ?weights:(Var.t -> float) ->
  Func.t ->
  Layout.t ->
  policy:Policy.t ->
  result
(** [obs] (default [Obs.null]) receives one span per allocation phase
    and round — [regalloc.liveness], [regalloc.interference],
    [regalloc.coloring], [regalloc.spill] — plus the
    [regalloc.spilled_vars] counter and the [regalloc.rounds]
    histogram. The spans are complete events emitted as each phase
    ends, with a [round] argument; the interference span adds the
    graph's [nodes] and [edges], the colouring span the [spilled]
    count.
    @raise Failure when spilling does not reach a colouring within
    [max_rounds] (default 16) — in practice only possible if the register
    file is degenerately small — and at once when a one-cell file needs
    any spill, since spill code holds a value and its slot address at
    the same time. *)

val cell_of_var : result -> Var.t -> int option
(** Lookup into the final assignment (spill temporaries included). *)
