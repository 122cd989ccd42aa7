(** Interference graph: an edge joins two variables whose live ranges
    overlap (§2 — such variables cannot share a register). Move-related
    pairs ([d <- mov s]) are not made to interfere by the move itself.

    Nodes carry dense ids [0 .. size - 1] in {!vars} order, with sorted
    adjacency arrays. {!build} works over the liveness's {!Numbering}:
    each definition ORs the words live after it (one {!Liveness.walk} per
    block) into a row of a V x V bit matrix, which dedupes the edges, so
    it costs O(defs × V/63 + V²/63 + edges) for V variables. *)

open Tdfa_ir
open Tdfa_dataflow

type t

val build : Func.t -> Liveness.t -> t
(** The liveness must be that of the function. *)

val vars : t -> Var.t list
(** All nodes, sorted by name for determinism. *)

val size : t -> int
(** Number of nodes. *)

val var : t -> int -> Var.t
(** The node with the given id: [var t i] is the [i]-th of {!vars}. *)

val adjacent : t -> int -> int array
(** Neighbour ids of a node, ascending. The array belongs to the graph:
    do not mutate it. *)

val neighbors : t -> Var.t -> Var.Set.t
val degree : t -> Var.t -> int
val interferes : t -> Var.t -> Var.t -> bool
val num_edges : t -> int
