open Tdfa_floorplan

(* The struct-of-arrays mirror of Thermal_state's point grid: every
   per-point query the boxed representation answers through closures
   is precomputed here into flat arrays, once per (layout, granularity).
   Neighbourhoods need no table: the grid is row-major, so the diffusion
   step in Flat_core reads a point's neighbours at fixed offsets. *)

type t = {
  point_rows : int;
  point_cols : int;
  n_points : int;
  cells_f : float array;  (* cells aggregated per point, as float *)
  point_of_cell : int array;  (* num_cells *)
}

let make layout ~granularity =
  if granularity < 1 then invalid_arg "Flat_grid.make: granularity < 1";
  let rows = layout.Layout.rows and cols = layout.Layout.cols in
  let point_rows = (rows + granularity - 1) / granularity in
  let point_cols = (cols + granularity - 1) / granularity in
  let n_points = point_rows * point_cols in
  let cells_f =
    Array.init n_points (fun p ->
        let pr = p / point_cols and pc = p mod point_cols in
        let rows_covered =
          min rows ((pr + 1) * granularity) - (pr * granularity)
        in
        let cols_covered =
          min cols ((pc + 1) * granularity) - (pc * granularity)
        in
        float_of_int (rows_covered * cols_covered))
  in
  let point_of_cell =
    Array.init (Layout.num_cells layout) (fun cell ->
        let row, col = Layout.coord layout cell in
        ((row / granularity) * point_cols) + (col / granularity))
  in
  { point_rows; point_cols; n_points; cells_f; point_of_cell }
