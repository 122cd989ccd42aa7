(** Generic iterative data-flow solver (worklist algorithm) over the IR
    CFG, in the classic Cooper–Torczon formulation the paper builds on.

    Clients provide a join-semilattice of facts and per-instruction
    transfer functions; the solver returns the fixpoint as per-block
    input/output facts. The backward solver also keeps the fact at every
    instruction boundary, filled during the solve, so per-instruction
    queries are lookups. *)

open Tdfa_ir

module type DOMAIN = sig
  type fact

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
  val bottom : fact
  (** Identity of [join]; the initial fact everywhere. *)
end

module type FORWARD = sig
  include DOMAIN

  val entry : Func.t -> fact
  (** Fact holding on entry to the function. *)

  val instr : Instr.t -> fact -> fact
  val terminator : Block.terminator -> fact -> fact
end

module type BACKWARD = sig
  include DOMAIN

  val exit : Func.t -> fact
  (** Fact holding after every [Return]. *)

  val instr : Instr.t -> fact -> fact
  val terminator : Block.terminator -> fact -> fact
end

module Forward (A : FORWARD) : sig
  type t

  val solve : Func.t -> t
  val input : t -> Label.t -> A.fact
  (** Fact before the first instruction of the block. *)

  val output : t -> Label.t -> A.fact
  (** Fact after the terminator. *)

  val iterations : t -> int
  (** Number of passes over the CFG before the fixpoint. *)
end

module Backward (A : BACKWARD) : sig
  type t

  val solve : Func.t -> t
  val input : t -> Label.t -> A.fact
  (** Fact before the first instruction (the block's live-in style fact). *)

  val output : t -> Label.t -> A.fact
  (** Fact after the terminator (joined from successors). *)

  val before_instr : t -> Label.t -> int -> A.fact
  val after_instr : t -> Label.t -> int -> A.fact
  (** Facts at the instruction's boundaries, one array read each. Blocks
      unreachable from the entry get the facts of a walk back from
      [bottom] (their [input]/[output] stay [bottom]).
      @raise Not_found for a label of no block of the solved function. *)

  val iterations : t -> int
end
