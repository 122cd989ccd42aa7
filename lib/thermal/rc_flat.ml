open Tdfa_floorplan

type t = {
  rows : int;
  cols : int;
  g_lat : float;
  ambient : float;
  gv_amb : float;  (* g_v *. ambient, the constant rhs term *)
  skew : int array;  (* row-major node -> its slot on the skewed grid *)
  g_sum : float array;  (* skewed: per-node (degree *. g_lat) +. g_v *)
  rhs : float array;  (* skewed: power +. gv_amb *)
  grid : float array;  (* skewed: the temperatures being swept *)
  temps : float array;  (* row-major: the last solve's solution *)
  mutable sweeps : int;  (* sweeps run by the last solve *)
}

(* One Gauss–Seidel sweep over the skewed [grid] in place; returns the
   largest change, NaN once any change is NaN (rc_sweep_stubs.c). *)
external sweep :
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) = "tdfa_rc_sweep_byte" "tdfa_rc_sweep"
[@@noalloc]

(* Anti-diagonal-major order: diagonal r + c = 0, 1, ... each stored
   contiguously, rows ascending. *)
let skew_of ~rows ~cols =
  let skew = Array.make (rows * cols) 0 and slot = ref 0 in
  for d = 0 to rows + cols - 2 do
    for r = max 0 (d - cols + 1) to min d (rows - 1) do
      skew.((r * cols) + d - r) <- !slot;
      incr slot
    done
  done;
  skew

let make model =
  let layout = Rc_model.layout model in
  let p = Rc_model.params model in
  let rows = layout.Layout.rows and cols = layout.Layout.cols in
  let n = rows * cols in
  let g_lat = p.Params.lateral_conductance_w_per_k in
  let g_v = p.Params.vertical_conductance_w_per_k in
  let skew = skew_of ~rows ~cols in
  let g_sum = Array.make n 0.0 in
  for i = 0 to n - 1 do
    g_sum.(skew.(i)) <- (float_of_int (Layout.degree layout i) *. g_lat) +. g_v
  done;
  {
    rows;
    cols;
    g_lat;
    ambient = p.Params.ambient_k;
    gv_amb = g_v *. p.Params.ambient_k;
    skew;
    g_sum;
    rhs = Array.make n 0.0;
    grid = Array.make n p.Params.ambient_k;
    temps = Array.make n p.Params.ambient_k;
    sweeps = 0;
  }

let num_nodes t = t.rows * t.cols
let temps t = t.temps
let sweeps t = t.sweeps

let solve_seq ?(tol = 1e-6) ?(max_sweeps = 10_000) t ~power =
  let n = num_nodes t in
  if Array.length power <> n then
    invalid_arg "Rc_flat.solve_seq: power length does not match the model";
  let skew = t.skew and rhs = t.rhs and grid = t.grid in
  let gv_amb = t.gv_amb in
  for i = 0 to n - 1 do
    rhs.(skew.(i)) <- power.(i) +. gv_amb
  done;
  Array.fill grid 0 n t.ambient;
  (* Same control flow as the boxed [iterate]: sweep while the previous
     sweep moved more than [tol] and fewer than [max_sweeps] ran — a NaN
     worst (exploded system) fails [> tol] and terminates, as in the
     boxed solver where Float.max propagates it. *)
  let k = ref 0 in
  let go = ref (max_sweeps > 0) in
  while !go do
    let worst = sweep grid rhs t.g_sum t.rows t.cols t.g_lat in
    incr k;
    go := worst > tol && !k < max_sweeps
  done;
  t.sweeps <- !k;
  for i = 0 to n - 1 do
    t.temps.(i) <- grid.(skew.(i))
  done;
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
