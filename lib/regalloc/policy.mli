(** Register assignment policies — which free cell to hand to the next
    variable. These are the three policies of Fig. 1 plus two
    thermally-motivated ones.

    A chooser is stateful (round-robin position, RNG, accumulated load for
    thermal spreading); create one per allocation run. *)

open Tdfa_floorplan

type t =
  | First_fit  (** lowest-index free register — Fig. 1(a) *)
  | Round_robin  (** next free register after the last one handed out *)
  | Random of int  (** uniformly random free register, seeded — Fig. 1(b) *)
  | Chessboard
      (** black squares first, then white — Fig. 1(c); degrades once more
          than half the file is needed *)
  | Thermal_spread
      (** pick the free cell farthest (weighted) from already-loaded
          cells, using the variables' estimated access weights *)
  | Bank_pack of int
      (** pack assignments into as few of [n] vertical banks as possible,
          so idle banks can be power-gated — §4's leakage-saving
          counterpoint to spreading *)
  | Measured of float array
      (** prefer the cells that a previous thermal simulation measured as
          coolest — one round of the feedback-driven framework the paper
          contrasts against (§1) *)

val name : t -> string
val all : t list
(** One of each, with a fixed seed for [Random] and 4 banks for
    [Bank_pack]. *)

val of_string : string -> t option
(** The member of {!all} with this {!name} — the one spelling table of
    the CLI's [--policy] flag and the serve protocol's [policy] field. *)

val bank_of_cell : Tdfa_floorplan.Layout.t -> banks:int -> int -> int
(** The vertical bank (column stripe) a cell belongs to. *)

type chooser

val make_chooser : t -> Layout.t -> chooser

val choose : chooser -> forbidden:bool array -> weight:float -> int option
(** Pick a cell [c] with [forbidden.(c) = false] for a variable with the
    given estimated access weight; [None] when every cell is forbidden.
    The mask has one entry per cell of the layout and is only read. Free
    cells are visited in ascending index order. The chooser records the
    pick for its future decisions.
    @raise Invalid_argument when the mask's length is not the layout's
    cell count. *)
