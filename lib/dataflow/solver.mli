(** Generic iterative data-flow solver (worklist algorithm) over the IR
    CFG, in the classic Cooper–Torczon formulation the paper builds on.

    Clients provide a join-semilattice of facts and per-instruction
    transfer functions; the solver returns the fixpoint as per-block
    input/output facts. Only the forward direction is generic: liveness,
    the one backward analysis, runs on bitsets of its own ({!Liveness}). *)

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
