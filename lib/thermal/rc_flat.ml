open Tdfa_floorplan

type t = {
  rows : int;
  cols : int;
  g_lat : float;
  ambient : float;
  gv_amb : float;  (* g_v *. ambient, the constant rhs term *)
  g_sum : float array;  (* per-node (degree *. g_lat) +. g_v *)
  temps : float array;
  power : float array;
  mutable sweeps : int;  (* sweeps run by the last solve *)
}

let make model =
  let layout = Rc_model.layout model in
  let p = Rc_model.params model in
  let n = Layout.num_cells layout in
  let g_lat = p.Params.lateral_conductance_w_per_k in
  let g_v = p.Params.vertical_conductance_w_per_k in
  {
    rows = layout.Layout.rows;
    cols = layout.Layout.cols;
    g_lat;
    ambient = p.Params.ambient_k;
    gv_amb = g_v *. p.Params.ambient_k;
    g_sum =
      Array.init n (fun i ->
          (float_of_int (Layout.degree layout i) *. g_lat) +. g_v);
    temps = Array.make n p.Params.ambient_k;
    power = Array.make n 0.0;
    sweeps = 0;
  }

let num_nodes t = t.rows * t.cols
let temps t = t.temps
let sweeps t = t.sweeps

let solve_seq ?(tol = 1e-6) ?(max_sweeps = 10_000) t ~power =
  let n = num_nodes t in
  if Array.length power <> n then
    invalid_arg "Rc_flat.solve_seq: power length does not match the model";
  Array.blit power 0 t.power 0 n;
  Array.fill t.temps 0 n t.ambient;
  let rows = t.rows and cols = t.cols in
  let temps = t.temps and pw = t.power and g_sum = t.g_sum in
  let g_lat = t.g_lat and gv_amb = t.gv_amb in
  (* Same control flow as the boxed [iterate]: sweep while the previous
     sweep moved more than [tol] and fewer than [max_sweeps] ran — a NaN
     worst (exploded system) fails [> tol] and terminates, as in the
     boxed solver where Float.max propagates it. *)
  let k = ref 0 in
  let go = ref (max_sweeps > 0) in
  while !go do
    let worst = ref 0.0 in
    (* Anti-diagonal wavefront: node (r, c) runs on diagonal r + c, after
       its up and left neighbours (diagonal d - 1, already fresh this
       sweep) and before its right and down neighbours (diagonal d + 1,
       still last sweep's) — exactly what it reads in the boxed
       row-major sweep, so every float is unchanged, while the nodes of
       one diagonal no longer depend on each other. *)
    for d = 0 to rows + cols - 2 do
      let r_lo = if d >= cols then d - cols + 1 else 0 in
      let r_hi = if d < rows then d else rows - 1 in
      for r = r_lo to r_hi do
        let c = d - r in
        let i = (r * cols) + c in
        (* The boxed neighbour fold: from 0.0, in Layout.neighbors
           order (up, left, right, down). Every index is in range by
           the loop bounds and the guards, and all three arrays have
           length rows * cols, so the reads skip their bounds checks. *)
        let acc = ref 0.0 in
        if r > 0 then acc := !acc +. (g_lat *. Array.unsafe_get temps (i - cols));
        if c > 0 then acc := !acc +. (g_lat *. Array.unsafe_get temps (i - 1));
        if c < cols - 1 then
          acc := !acc +. (g_lat *. Array.unsafe_get temps (i + 1));
        if r < rows - 1 then
          acc := !acc +. (g_lat *. Array.unsafe_get temps (i + cols));
        let fresh =
          (Array.unsafe_get pw i +. gv_amb +. !acc) /. Array.unsafe_get g_sum i
        in
        let dt = fresh -. Array.unsafe_get temps i in
        let ad = if dt >= 0.0 then dt else -.dt in
        (* Stdlib.Float.max semantics (NaN-taking), inline because a
           cross-module call would box its float arguments; max is
           order-invariant, so the diagonal order finds the same worst. *)
        let w = !worst in
        if ad > w || (ad <> ad && w = w) then worst := ad;
        Array.unsafe_set temps i fresh
      done
    done;
    incr k;
    go := !worst > tol && !k < max_sweeps
  done;
  t.sweeps <- !k;
  t.temps

let steady_with_leakage ?leak_mask model ~power =
  let t = make model in
  let n = num_nodes t in
  let gated i =
    match leak_mask with Some mask -> not mask.(i) | None -> false
  in
  let with_leak temps =
    let leak = Rc_model.leakage_power model ~temps in
    Array.mapi (fun i pw -> if gated i then pw else pw +. leak.(i)) power
  in
  let first = solve_seq t ~power:(with_leak (Array.make n t.ambient)) in
  let sweeps_first = t.sweeps in
  let temps = Array.copy (solve_seq t ~power:(with_leak first)) in
  (temps, sweeps_first, t.sweeps)
