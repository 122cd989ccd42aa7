open Tdfa_floorplan

type t = {
  layout : Layout.t;
  granularity : int;
  point_rows : int;
  point_cols : int;
  temps : float array;
}

let create layout ~granularity ~ambient_k =
  if granularity < 1 then invalid_arg "Thermal_state.create: granularity < 1";
  let point_rows = (layout.Layout.rows + granularity - 1) / granularity in
  let point_cols = (layout.Layout.cols + granularity - 1) / granularity in
  {
    layout;
    granularity;
    point_rows;
    point_cols;
    temps = Array.make (point_rows * point_cols) ambient_k;
  }

let layout t = t.layout
let granularity t = t.granularity
let num_points t = Array.length t.temps
let point_rows t = t.point_rows
let point_cols t = t.point_cols

let point_of_cell t cell =
  let row, col = Layout.coord t.layout cell in
  let pr = row / t.granularity in
  let pc = col / t.granularity in
  (pr * t.point_cols) + pc

let cells_per_point t point =
  let pr = point / t.point_cols in
  let pc = point mod t.point_cols in
  let rows_covered =
    min t.layout.Layout.rows ((pr + 1) * t.granularity) - (pr * t.granularity)
  in
  let cols_covered =
    min t.layout.Layout.cols ((pc + 1) * t.granularity) - (pc * t.granularity)
  in
  rows_covered * cols_covered

let get t p = t.temps.(p)
let set t p v = t.temps.(p) <- v
let copy t = { t with temps = Array.copy t.temps }

let point_neighbors t p =
  let pr = p / t.point_cols in
  let pc = p mod t.point_cols in
  let candidates =
    [ (pr - 1, pc); (pr, pc - 1); (pr, pc + 1); (pr + 1, pc) ]
  in
  List.filter_map
    (fun (r, c) ->
      if r >= 0 && r < t.point_rows && c >= 0 && c < t.point_cols then
        Some ((r * t.point_cols) + c)
      else None)
    candidates

let max_delta a b =
  assert (num_points a = num_points b);
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. b.temps.(i))))
    a.temps;
  !worst

let equal_within eps a b = max_delta a b <= eps

let join_max a b =
  assert (num_points a = num_points b);
  { a with temps = Array.mapi (fun i v -> Float.max v b.temps.(i)) a.temps }

let join_average a b =
  assert (num_points a = num_points b);
  { a with temps = Array.mapi (fun i v -> (v +. b.temps.(i)) /. 2.0) a.temps }

let blend ~into s ~weight =
  assert (num_points into = num_points s);
  Array.iteri
    (fun i v -> into.temps.(i) <- ((1.0 -. weight) *. v) +. (weight *. s.temps.(i)))
    into.temps

let to_cell_array t =
  Array.init (Layout.num_cells t.layout) (fun cell ->
      t.temps.(point_of_cell t cell))

let of_cell_array layout ~granularity cells =
  let t = create layout ~granularity ~ambient_k:0.0 in
  let counts = Array.make (num_points t) 0 in
  Array.fill t.temps 0 (num_points t) 0.0;
  Array.iteri
    (fun cell v ->
      let p = point_of_cell t cell in
      t.temps.(p) <- t.temps.(p) +. v;
      counts.(p) <- counts.(p) + 1)
    cells;
  Array.iteri
    (fun p c -> if c > 0 then t.temps.(p) <- t.temps.(p) /. float_of_int c)
    counts;
  t

let of_points layout ~granularity ~src ~pos =
  let t = create layout ~granularity ~ambient_k:0.0 in
  let n = num_points t in
  if pos < 0 || pos + n > Array.length src then
    invalid_arg "Thermal_state.of_points: slice out of range";
  Array.blit src pos t.temps 0 n;
  t

let blit_points t ~dst ~pos =
  let n = num_points t in
  if pos < 0 || pos + n > Array.length dst then
    invalid_arg "Thermal_state.blit_points: slice out of range";
  Array.blit t.temps 0 dst pos n

let map_points t f = Array.iteri (fun i v -> t.temps.(i) <- f i v) t.temps
let peak t = Array.fold_left Float.max neg_infinity t.temps
let mean t = Array.fold_left ( +. ) 0.0 t.temps /. float_of_int (num_points t)
