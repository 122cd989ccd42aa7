(** Spill-code insertion: rewrites a function so that the given variables
    live in memory, with a short-lived temporary around each use and each
    definition. This is also the mechanism behind the paper's "spill the
    critical variables" thermal optimization (§4). *)

open Tdfa_ir

val base_address : int
(** Start of the spill area in the interpreter's flat memory; kernels keep
    their data well below it. *)

val rewrite : ?slot_base:int -> Func.t -> Var.Set.t -> Func.t
(** Every use of a spilled variable loads it into a fresh temporary first;
    every definition stores through a fresh temporary. Spilled parameters
    are stored to their slot on entry.

    [slot_base] (default 0) offsets the slots within the spill area;
    callers spilling in several rounds must pass the number of slots
    already handed out, or later rounds would clobber earlier ones.
    Temporaries are numbered on from the highest {!temp_prefix} index
    the function already defines, so every round's names are fresh
    (a function without spill code starts at 0). *)

val temp_prefix : string
(** Prefix of the temporaries introduced here, for tests. *)
