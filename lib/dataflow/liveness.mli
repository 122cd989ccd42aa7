(** Liveness analysis (backward). Two variables interfere — and thus need
    distinct registers — exactly when their live ranges overlap (§2 of the
    paper). *)

open Tdfa_ir

type t

val analyze : Func.t -> t

val live_in : t -> Label.t -> Var.Set.t
(** Variables live before the first instruction of the block. *)

val live_out : t -> Label.t -> Var.Set.t
(** Variables live after the terminator. *)

val live_before_instr : t -> Label.t -> int -> Var.Set.t
val live_after_instr : t -> Label.t -> int -> Var.Set.t
(** Lookups into the facts {!analyze} recorded at every instruction
    boundary (see {!Solver.Backward.after_instr}). *)

val max_pressure : t -> int
(** Largest number of simultaneously live variables at any program point —
    the function's register pressure. *)

val iterations : t -> int
