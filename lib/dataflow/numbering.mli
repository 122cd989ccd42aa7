(** Dense ids for one function's variables and blocks, and its code
    re-encoded over them — the shared indexing of the bitset analyses
    ({!Liveness}, the interference graph, the verifier's definite
    assignment).

    Variable ids number the distinct variables of the function (every
    parameter and every variable an instruction or terminator mentions)
    [0 .. size - 1] in [Var.compare] order, so ascending ids visit
    variables in the order a [Var.Set] does. Blocks are numbered by
    their position in the function, the entry at 0. *)

open Tdfa_ir

type block = private {
  label : Label.t;
  body : Instr.t array;
  defs : int array;
      (** per instruction, the id of the variable it defines, or [-1] *)
  use_at : int array;
      (** [length body + 1] offsets: instruction [i] reads
          [use_ids.(use_at.(i)) .. use_ids.(use_at.(i + 1) - 1)], in
          operand order (duplicates kept) *)
  use_ids : int array;
  term_ids : int array;  (** the terminator's uses *)
  succs : int array;
      (** successor positions in terminator order; a target that names
          no block is dropped *)
}

type t = private {
  func : Func.t;
  vars : Var.t array;  (** [vars.(id)] is the variable with that id *)
  ids : int Var.Tbl.t;
  blocks : block array;  (** in function order *)
  positions : int Label.Tbl.t;
  postorder : int array;
      (** positions of the blocks reachable from the entry, in the
          order of {!Tdfa_ir.Func.postorder} *)
}

val make : Func.t -> t
(** One hash lookup per operand, one sort of the distinct variables. *)

val size : t -> int
(** Number of variables. *)

val id : t -> Var.t -> int
(** @raise Not_found for a variable the function does not mention. *)

val position : t -> Label.t -> int
(** @raise Not_found for a label of no block. *)
