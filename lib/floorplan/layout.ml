type t = {
  rows : int;
  cols : int;
  cell_width_um : float;
  cell_height_um : float;
}

let make ?(cell_width_um = 12.0) ?(cell_height_um = 6.0) ~rows ~cols () =
  if rows <= 0 || cols <= 0 then invalid_arg "Layout.make: non-positive grid";
  if cell_width_um <= 0.0 || cell_height_um <= 0.0 then
    invalid_arg "Layout.make: non-positive cell size";
  { rows; cols; cell_width_um; cell_height_um }

let num_cells t = t.rows * t.cols

let coord t i =
  assert (i >= 0 && i < num_cells t);
  (i / t.cols, i mod t.cols)

let index t ~row ~col =
  assert (row >= 0 && row < t.rows && col >= 0 && col < t.cols);
  (row * t.cols) + col

let in_range t i = i >= 0 && i < num_cells t

let center_um t i =
  let row, col = coord t i in
  ( (float_of_int col +. 0.5) *. t.cell_width_um,
    (float_of_int row +. 0.5) *. t.cell_height_um )

let distance_um t i j =
  let xi, yi = center_um t i in
  let xj, yj = center_um t j in
  Float.hypot (xi -. xj) (yi -. yj)

let manhattan t i j =
  let ri, ci = coord t i in
  let rj, cj = coord t j in
  abs (ri - rj) + abs (ci - cj)

(* [coord] without its tuple: these two run once per cell of every RC
   model. *)
let degree t i =
  assert (in_range t i);
  let row = i / t.cols and col = i mod t.cols in
  Bool.to_int (row > 0)
  + Bool.to_int (col > 0)
  + Bool.to_int (col < t.cols - 1)
  + Bool.to_int (row < t.rows - 1)

(* Up, left, right, down: those inside the grid. *)
let neighbor_array t i =
  let nb = Array.make (degree t i) 0 and k = ref 0 in
  let row = i / t.cols and col = i mod t.cols in
  if row > 0 then (nb.(!k) <- i - t.cols; incr k);
  if col > 0 then (nb.(!k) <- i - 1; incr k);
  if col < t.cols - 1 then (nb.(!k) <- i + 1; incr k);
  if row < t.rows - 1 then nb.(!k) <- i + t.cols;
  nb

let neighbors t i = Array.to_list (neighbor_array t i)

let chessboard_color t i =
  let row, col = coord t i in
  (row + col) land 1

let cells t = List.init (num_cells t) Fun.id
