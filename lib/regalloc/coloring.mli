(** Chaitin–Briggs graph colouring over the interference graph. The
    *colour choice* (which free cell) is delegated to a {!Policy}
    chooser — that choice is irrelevant to correctness but decisive for
    the thermal map, which is the paper's point. *)

open Tdfa_ir
open Tdfa_floorplan

type outcome = {
  assignment : Assignment.t;  (** colours for the non-spilled variables *)
  spilled : Var.Set.t;  (** variables that could not be coloured *)
}

val run :
  Interference.t ->
  Layout.t ->
  policy:Policy.t ->
  weights:(Var.t -> float) ->
  outcome
(** Hot variables (by weight) are selected first so they receive the
    policy's preferred cells; spill candidates are picked by lowest
    weight/degree ratio. Ties within 1e-12 go to the smaller variable.
    [weights] is called once per node; simplify keeps degree counters
    and scans the remaining nodes once per removal, O(V²) in all. Select
    marks the coloured neighbours' cells in one mask reused for every
    node and clears them after the pick, O(degree) per node. *)
