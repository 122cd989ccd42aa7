open Tdfa_floorplan

type t = {
  layout : Layout.t;
  params : Params.t;
  neighbors : int array array option Atomic.t;
      (* node -> lateral neighbour nodes, built by the first boxed
         [derivative] or [steady_state]: the flat solve (Rc_flat) reads
         the layout and parameters only. Domains that race to build
         them build equal tables, so either may win. *)
}

let build layout params = { layout; params; neighbors = Atomic.make None }

let neighbors t =
  match Atomic.get t.neighbors with
  | Some n -> n
  | None ->
    let n =
      Array.init (Layout.num_cells t.layout) (Layout.neighbor_array t.layout)
    in
    Atomic.set t.neighbors (Some n);
    n

let layout t = t.layout
let params t = t.params
let num_nodes t = Layout.num_cells t.layout

let out_buffer name n = function
  | None -> Array.make n 0.0
  | Some o ->
    if Array.length o <> n then
      invalid_arg (name ^ ": out buffer length does not match the model");
    o

let derivative ?out t ~temps ~power =
  let p = t.params in
  let n = num_nodes t in
  assert (Array.length temps = n && Array.length power = n);
  let g_lat = p.Params.lateral_conductance_w_per_k in
  let g_v = p.Params.vertical_conductance_w_per_k in
  let c = p.Params.cell_capacitance_j_per_k in
  let dst = out_buffer "Rc_model.derivative" n out in
  let neighbors = neighbors t in
  for i = 0 to n - 1 do
    let lateral =
      Array.fold_left
        (fun acc j -> acc +. (g_lat *. (temps.(j) -. temps.(i))))
        0.0 neighbors.(i)
    in
    let vertical = g_v *. (p.Params.ambient_k -. temps.(i)) in
    dst.(i) <- (power.(i) +. lateral +. vertical) /. c
  done;
  dst

let steady_state ?(tol = 1e-6) ?(max_sweeps = 10_000) t ~power =
  let p = t.params in
  let n = num_nodes t in
  assert (Array.length power = n);
  let g_lat = p.Params.lateral_conductance_w_per_k in
  let g_v = p.Params.vertical_conductance_w_per_k in
  let temps = Array.make n p.Params.ambient_k in
  let neighbors = neighbors t in
  let sweep () =
    let worst = ref 0.0 in
    for i = 0 to n - 1 do
      let g_sum = (float_of_int (Array.length neighbors.(i)) *. g_lat) +. g_v in
      let rhs =
        power.(i)
        +. (g_v *. p.Params.ambient_k)
        +. Array.fold_left (fun acc j -> acc +. (g_lat *. temps.(j))) 0.0 neighbors.(i)
      in
      let fresh = rhs /. g_sum in
      worst := Float.max !worst (Float.abs (fresh -. temps.(i)));
      temps.(i) <- fresh
    done;
    !worst
  in
  let rec iterate k = if k < max_sweeps && sweep () > tol then iterate (k + 1) in
  iterate 0;
  temps

let leakage_power ?out t ~temps =
  let p = t.params in
  let n = Array.length temps in
  let dst = out_buffer "Rc_model.leakage_power" n out in
  for i = 0 to n - 1 do
    let excess = Float.max 0.0 (temps.(i) -. p.Params.ambient_k) in
    dst.(i) <-
      p.Params.leakage_w *. (1.0 +. (p.Params.leakage_temp_coeff *. excess))
  done;
  dst
