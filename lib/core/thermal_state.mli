(** The data-flow fact of the thermal analysis: a discretized approximation
    of the register-file temperature field.

    §3: "The thermal state is a continuous function that can only be
    approximated, typically as a discrete set of points. The fidelity of
    the analysis will depend on the granularity of the approximation."
    [granularity] g groups g x g register cells into one thermal point;
    g = 1 is the finest (one point per cell). *)

open Tdfa_floorplan

type t

val create : Layout.t -> granularity:int -> ambient_k:float -> t
(** @raise Invalid_argument when [granularity < 1]. *)

val layout : t -> Layout.t
val granularity : t -> int
val num_points : t -> int
val point_rows : t -> int
val point_cols : t -> int

val cells_per_point : t -> int -> int
(** Number of register cells aggregated into the point (edge points of a
    non-divisible layout hold fewer). *)

val point_of_cell : t -> int -> int
val get : t -> int -> float
val set : t -> int -> float -> unit
val copy : t -> t

val point_neighbors : t -> int -> int list
(** 4-connected neighbours on the point grid. *)

val max_delta : t -> t -> float
(** Largest pointwise absolute difference — the quantity compared against
    delta in Fig. 2. *)

val equal_within : float -> t -> t -> bool

val join_max : t -> t -> t
(** Pointwise maximum — the conservative merge for reliability analysis. *)

val join_average : t -> t -> t

val blend : into:t -> t -> weight:float -> unit
(** [blend ~into s ~weight] sets [into <- (1-w)*into + w*s] pointwise. *)

val to_cell_array : t -> float array
(** Expand to one temperature per register cell (each cell takes its
    point's value). *)

val of_cell_array : Layout.t -> granularity:int -> float array -> t
(** Aggregate a per-cell field by averaging within each point. *)

val of_points : Layout.t -> granularity:int -> src:float array -> pos:int -> t
(** Materialize a state from a slice of a flat point buffer (the
    representation of the flat analysis kernel): the [num_points] floats
    of [src] starting at [pos] are copied in.
    @raise Invalid_argument when the slice is out of range. *)

val blit_points : t -> dst:float array -> pos:int -> unit
(** Inverse of {!of_points}: copy the point field into a flat buffer.
    @raise Invalid_argument when the slice is out of range. *)

val map_points : t -> (int -> float -> float) -> unit
(** In-place update of every point. *)

val peak : t -> float
val mean : t -> float
