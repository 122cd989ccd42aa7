(** Register-file floorplan: a [rows x cols] grid of register cells.

    Cell index [r * cols + c] is physical register [r * cols + c]; all
    spatial reasoning (distances, neighbourhoods, the chessboard pattern)
    lives here. Dimensions are in micrometres. *)

type t = private {
  rows : int;
  cols : int;
  cell_width_um : float;
  cell_height_um : float;
}

val make : ?cell_width_um:float -> ?cell_height_um:float -> rows:int -> cols:int -> unit -> t
(** Defaults: 12 um x 6 um cells (a 32-bit register cell footprint in a
    90 nm-class node, the technology generation of the paper).
    @raise Invalid_argument on non-positive dimensions. *)

val num_cells : t -> int
val coord : t -> int -> int * int
(** [coord t i] is [(row, col)] of cell [i]. Asserts [i] in range. *)

val index : t -> row:int -> col:int -> int
val in_range : t -> int -> bool

val center_um : t -> int -> float * float
(** Physical centre of the cell. *)

val distance_um : t -> int -> int -> float
(** Euclidean centre-to-centre distance. *)

val manhattan : t -> int -> int -> int
(** Grid (Manhattan) distance in cells. *)

val neighbors : t -> int -> int list
(** 4-connected lateral neighbours, in row-major order. *)

val neighbor_array : t -> int -> int array
(** {!neighbors} as a fresh array, built without an intermediate list. *)

val degree : t -> int -> int
(** [List.length (neighbors t i)], from the cell's position alone. *)

val chessboard_color : t -> int -> int
(** 0 for "black" cells, 1 for "white" — the checkerboard of Fig. 1(c). *)

val cells : t -> int list
(** All cell indices, ascending. *)
