(** Liveness analysis (backward). Two variables interfere — and thus need
    distinct registers — exactly when their live ranges overlap (§2 of the
    paper).

    The facts are {!Bits} sets over the function's {!Numbering}, kept at
    block boundaries only: the solve composes each block's gen/kill pair
    (its upward-exposed uses and its definitions), and the facts inside a
    block are recovered by {!walk}, one backward pass from the block's
    live-out. Memory is O(blocks × variables / 63) words. *)

open Tdfa_ir

type t

val analyze : Func.t -> t
(** Round-robin over the blocks reachable from the entry, in
    {!Tdfa_ir.Func.postorder}, until a pass changes no block's live-in.
    Blocks unreachable from the entry keep empty boundary facts. *)

val numbering : t -> Numbering.t
(** The numbering the facts are over. *)

val live_in : t -> Label.t -> Var.Set.t
(** Variables live before the first instruction of the block; empty for
    a label of no block. *)

val live_out : t -> Label.t -> Var.Set.t
(** Variables live after the terminator. *)

val live_in_bits : t -> Label.t -> Bits.t
(** {!live_in} as ids. The set belongs to the analysis: do not mutate it.
    @raise Not_found for a label of no block. *)

val walk : t -> Label.t -> (int -> int -> Bits.t -> unit) -> unit
(** [walk t l f] calls [f i d after] for every instruction [i] of block
    [l], the last first: [d] is the id the instruction defines ([-1] for
    none) and [after] the ids live after it. [after] is one scratch set
    updated in place between calls — read it inside [f], do not keep or
    mutate it. An unreachable block is walked from its empty live-out.
    O(block length × words).
    @raise Not_found for a label of no block. *)

val live_before_instr : t -> Label.t -> int -> Var.Set.t
val live_after_instr : t -> Label.t -> int -> Var.Set.t
(** The facts at an instruction's boundaries, each replayed from the
    block's live-out: O(block length × words) per query. Code that visits
    every instruction of a block uses {!walk}.
    @raise Not_found for a label of no block. *)

val max_pressure : t -> int
(** Largest number of simultaneously live variables at any program point —
    the function's register pressure. *)

val iterations : t -> int
(** Passes over the reachable blocks, the last one changing nothing. *)
