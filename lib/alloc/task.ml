open Tdfa_floorplan
open Tdfa_thermal

type t = {
  name : string;
  peak_k : float;
  mean_k : float;
  cells_w : float array;
}

let sustained_w t = Array.fold_left ( +. ) 0.0 t.cells_w

let transient_rise_k t =
  let r = t.peak_k -. t.mean_k in
  if r > 0.0 then r else 0.0

(* (T - ambient) * g_vert, clamped at zero: a cell below ambient (never
   produced by the analysis, but certified lower envelopes start there)
   contributes no sustained power rather than negative cooling. *)
let power_of_temps ~(params : Params.t) temps =
  let g_v = params.Params.vertical_conductance_w_per_k in
  Array.map
    (fun temp_k ->
      let rise = temp_k -. params.Params.ambient_k in
      if rise > 0.0 then rise *. g_v else 0.0)
    temps

let of_outcome ?(params = Params.default) ~core ~name outcome =
  let module A = Tdfa_core.Analysis in
  let info = A.info outcome in
  let mean_state = A.mean_map info in
  let cells = Tdfa_core.Thermal_state.to_cell_array mean_state in
  if Array.length cells <> Layout.num_cells core then
    invalid_arg "Task.of_outcome: outcome layout does not match the core";
  {
    name;
    peak_k = Tdfa_core.Thermal_state.peak (A.peak_map info);
    mean_k = Tdfa_core.Thermal_state.mean mean_state;
    cells_w = power_of_temps ~params cells;
  }

let of_scalars ?(params = Params.default) ~core ~name ~peak_k ~mean_k () =
  let n = Layout.num_cells core in
  let rise = mean_k -. params.Params.ambient_k in
  let per_cell =
    if rise > 0.0 then
      rise *. params.Params.vertical_conductance_w_per_k
    else 0.0
  in
  { name; peak_k; mean_k; cells_w = Array.make n per_cell }

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c
  else
    let c = Float.compare a.peak_k b.peak_k in
    if c <> 0 then c
    else
      let c = Float.compare a.mean_k b.mean_k in
      if c <> 0 then c else Stdlib.compare a.cells_w b.cells_w
