open Tdfa_obs
module Transfer = Tdfa_core.Transfer
module Thermal_state = Tdfa_core.Thermal_state
module Analysis = Tdfa_core.Analysis
module Flat_core = Tdfa_core.Flat_core
module Params = Tdfa_thermal.Params

(* Slack added to upper bounds so that rounding differences between the
   certificate sweep's float arithmetic and the real-valued monotonicity
   argument can never flip a certified comparison. Invisible at the
   0.01 K display precision. *)
let fp_slack = 1e-3

type stats = { iterations : int; certify_sweeps : int; lift_alpha : float }

type t = {
  ambient_k : float;
  margin_k : float;
  lo_cells : float array;
  hi_cells : float array;
  peak_lo_k : float;
  peak_hi_k : float;
  stats : stats;
}

(* The Kleene and Knaster–Tarski arguments need a monotone sweep: every
   phase of the step order-preserving (cooling and diffusion convex
   combinations, leakage non-decreasing) and the step from ambient
   non-cooling (heat and leakage non-negative). *)
let monotone (cfg : Transfer.config) =
  let p = cfg.Transfer.params in
  let kappa = Transfer.cooling_coeff cfg in
  let lambda = Transfer.diffusion_coeff cfg in
  kappa >= 0.0 && kappa <= 1.0 && lambda >= 0.0 && 4.0 *. lambda <= 1.0
  && p.Params.leakage_w >= 0.0
  && p.Params.leakage_temp_coeff >= 0.0
  && p.Params.read_energy_j >= 0.0
  && p.Params.write_energy_j >= 0.0

(* nu: the max-norm Lipschitz constant of one transfer step — leakage
   slope times the cooling factor (diffusion is a convex combination). *)
let contraction (cfg : Transfer.config) =
  let scratch = Transfer.fresh_state cfg in
  let max_cells = ref 0 in
  for pt = 0 to Thermal_state.num_points scratch - 1 do
    max_cells := max !max_cells (Thermal_state.cells_per_point scratch pt)
  done;
  let p = cfg.Transfer.params in
  let l1 =
    p.Params.leakage_w *. p.Params.leakage_temp_coeff
    *. float_of_int !max_cells *. cfg.Transfer.analysis_dt_s
    /. Transfer.point_capacitance cfg
  in
  (1.0 -. Transfer.cooling_coeff cfg) *. (1.0 +. l1)

(* The lift candidates (alpha, beta), in trial order. Iterates from
   ambient approach the limit roughly geometrically with the ratio [r]
   of the last two sweep deltas, so the remaining rise of each exit is
   about [d * r / (1 - r)] for its last step [d]; alpha overshoots that
   by half. beta adds a uniform cushion up to the contraction margin
   [m = nu * delta / (1 - nu)], within which the stopped iterate lies
   below the limit; the last candidate is that margin alone. *)
let lift_schedule cfg ~ratio ~final_delta_k =
  let alpha =
    if ratio >= 0.0 && ratio < 1.0 then
      Float.max 1.0 (1.5 *. ratio /. (1.0 -. ratio))
    else 1.0
  in
  let nu = contraction cfg in
  let m = nu *. final_delta_k /. (1.0 -. nu) in
  let cushions =
    if nu < 1.0 && m > 0.0 then
      List.map (fun d -> (alpha, m /. d)) [ 32.0; 16.0; 8.0; 4.0; 2.0 ]
      @ [ (0.0, m) ]
    else []
  in
  (alpha, 0.0) :: cushions

let cells_of_points (cfg : Transfer.config) pts =
  Thermal_state.to_cell_array
    (Thermal_state.of_points cfg.Transfer.layout
       ~granularity:cfg.Transfer.granularity ~src:pts ~pos:0)

let predict ?(obs = Obs.null) ?delta_k ?max_iterations (cfg : Transfer.config)
    func =
  let defaults = Analysis.default_settings in
  let settings =
    {
      defaults with
      Analysis.delta_k = Option.value delta_k ~default:defaults.Analysis.delta_k;
      max_iterations =
        Option.value max_iterations ~default:defaults.Analysis.max_iterations;
    }
  in
  let core = Analysis.prepare ~obs ~settings cfg func in
  (* The fixpoint, remembering the exits before each sweep and the last
     two sweep deltas: the lift extrapolates from both. *)
  let exits = Flat_core.exits core in
  let before = Array.copy exits in
  let deltas = [| infinity; infinity |] in
  let pass () =
    Array.blit exits 0 before 0 (Array.length exits);
    let ((worst, _) as r) = Flat_core.pass core in
    deltas.(0) <- deltas.(1);
    deltas.(1) <- worst;
    r
  in
  let iterations, final_delta_k, _, _ =
    Analysis.sweep ~obs ~skipped:(fun () -> Flat_core.skipped core) ~settings
      cfg func pass
  in
  let monotone = monotone cfg in
  let num_cells = Tdfa_floorplan.Layout.num_cells cfg.Transfer.layout in
  (* Iterates from ambient rise monotonically, so the stopped one lies
     below the limit: its peak map is the lower bound. *)
  let lo_cells =
    if monotone then cells_of_points cfg (Flat_core.peak_points core)
    else Array.make num_cells neg_infinity
  in
  (* The certificate sweeps overwrite the workspace, [exits] included. *)
  let last = Array.copy exits in
  let u = Array.make (Array.length last) 0.0 in
  let rec attempt n = function
    | [] -> (n, None)
    | (alpha, beta) :: rest ->
        Array.iteri
          (fun i tk ->
            u.(i) <- tk +. (alpha *. Float.max 0.0 (tk -. before.(i))) +. beta)
          last;
        if Flat_core.post_fixpoint core u then
          (n + 1, Some (alpha, beta, Flat_core.peak_points core))
        else attempt (n + 1) rest
  in
  let attempts, found =
    if monotone then
      attempt 0
        (lift_schedule cfg ~ratio:(deltas.(1) /. deltas.(0)) ~final_delta_k)
    else (0, None)
  in
  Obs.instant obs "absint.certify"
    ~args:[ ("attempts", Obs.Int attempts); ("found", Obs.Bool (found <> None)) ];
  let hi_cells, lift_alpha, margin_k =
    match found with
    | Some (alpha, beta, hi) ->
        (Array.map (fun v -> v +. fp_slack) (cells_of_points cfg hi), alpha, beta)
    | None -> (Array.make num_cells infinity, 0.0, 0.0)
  in
  let peak = Array.fold_left Float.max neg_infinity in
  {
    ambient_k = cfg.Transfer.params.Params.ambient_k;
    margin_k;
    lo_cells;
    hi_cells;
    peak_lo_k = peak lo_cells;
    peak_hi_k = peak hi_cells;
    stats = { iterations; certify_sweeps = attempts; lift_alpha };
  }

type verdict = Certified_hot | Straddles | Certified_cool

let verdict ~hot_k r =
  if r.peak_lo_k >= hot_k then Certified_hot
  else if r.peak_hi_k < hot_k then Certified_cool
  else Straddles

let verdict_name = function
  | Certified_hot -> "certified-hot"
  | Straddles -> "straddles"
  | Certified_cool -> "certified-cool"

let cells_where pred r =
  let acc = ref [] in
  for c = Array.length r.lo_cells - 1 downto 0 do
    if pred c then acc := c :: !acc
  done;
  !acc

let certified_hot_cells ~hot_k r = cells_where (fun c -> r.lo_cells.(c) >= hot_k) r
let possibly_hot_cells ~hot_k r = cells_where (fun c -> r.hi_cells.(c) >= hot_k) r
