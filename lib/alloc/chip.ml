open Tdfa_floorplan
open Tdfa_thermal

type t = {
  grid : Layout.t;
  core : Layout.t;
  params : Params.t;
  g_core_lat : float;  (* core-to-core lateral conductance, W/K *)
  g_core_vert : float;  (* core-to-ambient vertical conductance, W/K *)
  basis_r : float array;  (* rows x rows: basis_r.(j * rows + k) = u_k(j) *)
  basis_rt : float array;  (* its transpose *)
  basis_c : float array;  (* cols x cols, likewise *)
  basis_ct : float array;
  inv_eig : float array;  (* rows x cols: 1 / eigenvalue of G *)
}

let max_cores = 1024

(* Orthonormal eigenvectors of the m-node path-graph Laplacian with
   insulated ends (degree 1 at the ends, 2 inside): the DCT-II basis
   u_k(j) = s_k cos (pi k (2j + 1) / 2m), with s_0 = sqrt (1/m) and
   s_k = sqrt (2/m), and eigenvalue 2 - 2 cos (pi k / m). *)
let cosine_basis m =
  let fm = float_of_int m in
  let basis =
    Array.init (m * m) (fun jk ->
        let j = jk / m and k = jk mod m in
        let s = if k = 0 then sqrt (1.0 /. fm) else sqrt (2.0 /. fm) in
        s
        *. cos
             (Float.pi *. float_of_int k *. float_of_int ((2 * j) + 1)
             /. (2.0 *. fm)))
  in
  let eig =
    Array.init m (fun k -> 2.0 -. (2.0 *. cos (Float.pi *. float_of_int k /. fm)))
  in
  let transposed =
    Array.init (m * m) (fun kj -> basis.(((kj mod m) * m) + (kj / m)))
  in
  (basis, transposed, eig)

(* Cores abut along an edge of the register-file grid; parallel thermal
   paths add, so the core-to-core conductance is the per-cell lateral
   conductance times the cells along the shared edge. The RF is not
   square in general — use the mean of the two edge lengths so the
   coupling stays isotropic, as the chip grid itself is. *)
let make ?(params = Params.default) ?core ~rows ~cols () =
  let core =
    match core with Some l -> l | None -> Layout.make ~rows:8 ~cols:8 ()
  in
  let grid =
    Layout.make ~rows ~cols
      ~cell_width_um:
        (float_of_int core.Layout.cols *. core.Layout.cell_width_um)
      ~cell_height_um:
        (float_of_int core.Layout.rows *. core.Layout.cell_height_um)
      ()
  in
  let edge =
    0.5 *. float_of_int (core.Layout.rows + core.Layout.cols)
  in
  let g_core_lat = params.Params.lateral_conductance_w_per_k *. edge in
  let g_core_vert =
    params.Params.vertical_conductance_w_per_k
    *. float_of_int (Layout.num_cells core)
  in
  let rows = grid.Layout.rows and cols = grid.Layout.cols in
  if rows > max_cores || cols > max_cores || rows * cols > max_cores then
    invalid_arg
      (Printf.sprintf "Chip.make: %dx%d exceeds %d cores" rows cols max_cores);
  (* G = g_lat (L_rows (x) I + I (x) L_cols) + g_vert I: the Laplacians'
     eigenvalues add, so G is diagonal in the product cosine basis. *)
  let basis_r, basis_rt, eig_r = cosine_basis rows in
  let basis_c, basis_ct, eig_c = cosine_basis cols in
  let inv_eig =
    Array.init (rows * cols) (fun kl ->
        1.0
        /. ((g_core_lat *. (eig_r.(kl / cols) +. eig_c.(kl mod cols)))
           +. g_core_vert))
  in
  {
    grid;
    core;
    params;
    g_core_lat;
    g_core_vert;
    basis_r;
    basis_rt;
    basis_c;
    basis_ct;
    inv_eig;
  }

let grid t = t.grid
let core t = t.core
let params t = t.params
let num_cores t = Layout.num_cells t.grid
let ambient_k t = t.params.Params.ambient_k
let core_vertical_w_per_k t = t.g_core_vert
let core_lateral_w_per_k t = t.g_core_lat
let cell_vertical_w_per_k t = t.params.Params.vertical_conductance_w_per_k
let neighbors t i = Layout.neighbors t.grid i

(* out <- x * y for row-major x (m x k) and y (k x n), each entry one
   dot product in index order. The callers below size every buffer
   exactly, so the reads skip their bounds checks. *)
let mul ~m ~k ~n x y out =
  Array.fill out 0 (m * n) 0.0;
  for i = 0 to m - 1 do
    let row = i * n in
    for p = 0 to k - 1 do
      let xip = Array.unsafe_get x ((i * k) + p) and yrow = p * n in
      for j = 0 to n - 1 do
        Array.unsafe_set out (row + j)
          (Array.unsafe_get out (row + j)
          +. (xip *. Array.unsafe_get y (yrow + j)))
      done
    done
  done

(* out <- u_t * p for row-major u_t (m x m) and p (m x n), adding only
   the non-zero entries of p, row by row: each entry of out still sums
   its terms in index order. A skipped term is a finite basis entry
   times +-0, so +-0, and adding it would change nothing: every sum
   starts at +0.0 and so never reaches -0.0 (x +. y is -0.0 only for
   two -0.0), and x +. (+-0) = x for every other x, NaNs included.
   NaN and infinite entries are not zero and are added. *)
let mul_nonzero ~m ~n u_t p out =
  Array.fill out 0 (m * n) 0.0;
  for k = 0 to m - 1 do
    for j = 0 to n - 1 do
      let y = Array.unsafe_get p ((k * n) + j) in
      if y <> 0.0 then
        for i = 0 to m - 1 do
          let o = (i * n) + j in
          Array.unsafe_set out o
            (Array.unsafe_get out o
            +. (Array.unsafe_get u_t ((i * m) + k) *. y))
        done
    done
  done

(* G (T - ambient) = power, since every row of the Laplacian part sums
   to zero. With U_r, U_c the cosine bases and power read as a rows x
   cols matrix P: T - ambient = U_r ((U_r^T P U_c) ./ eig) U_c^T — four
   small dense products, O(n (rows + cols)). The first skips P's zero
   entries: a placement powers at most one core per task. *)
let solve t ~power =
  let rows = t.grid.Layout.rows and cols = t.grid.Layout.cols in
  let n = rows * cols in
  if Array.length power <> n then
    invalid_arg "Chip.solve: power length does not match the chip";
  let a = Array.make n 0.0 and b = Array.make n 0.0 in
  mul_nonzero ~m:rows ~n:cols t.basis_rt power a;
  mul ~m:rows ~k:cols ~n:cols a t.basis_c b;
  for i = 0 to n - 1 do
    b.(i) <- b.(i) *. t.inv_eig.(i)
  done;
  mul ~m:rows ~k:rows ~n:cols t.basis_r b a;
  mul ~m:rows ~k:cols ~n:cols a t.basis_ct b;
  let ambient = t.params.Params.ambient_k in
  for i = 0 to n - 1 do
    b.(i) <- ambient +. b.(i)
  done;
  b

let geometry_of_string s =
  match String.index_opt s 'x' with
  | None -> Error (Printf.sprintf "bad chip geometry %S: expected ROWSxCOLS" s)
  | Some i -> (
    let rs = String.sub s 0 i in
    let cs = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt rs, int_of_string_opt cs) with
    | Some r, Some c when r > 0 && c > 0 ->
      (* Bound each side first so [r * c] cannot overflow. *)
      if r > max_cores || c > max_cores || r * c > max_cores then
        Error
          (Printf.sprintf "bad chip geometry %S: more than %d cores" s
             max_cores)
      else Ok (r, c)
    | _ ->
      Error
        (Printf.sprintf "bad chip geometry %S: expected positive ROWSxCOLS" s))

let geometry_to_string t =
  Printf.sprintf "%dx%d" t.grid.Layout.rows t.grid.Layout.cols
