(** Precomputed flat geometry of the thermal point grid: the
    struct-of-arrays counterpart of {!Thermal_state}'s per-point queries
    (point of cell, cells per point), built once per (layout,
    granularity) and shared by the flat analysis kernel and its tests.
    Points are numbered row-major over [point_rows * point_cols], as in
    {!Thermal_state}; the 4-neighbourhood of point [p] is [p - point_cols],
    [p - 1], [p + 1] and [p + point_cols] where those lie on the grid,
    so no neighbour table is stored. *)

open Tdfa_floorplan

type t = {
  point_rows : int;
  point_cols : int;
  n_points : int;
  cells_f : float array;  (** register cells aggregated per point *)
  point_of_cell : int array;
}

val make : Layout.t -> granularity:int -> t
(** @raise Invalid_argument when [granularity < 1]. *)
