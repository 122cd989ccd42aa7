(* The certified bracket as one loop on one workspace: the fixpoint
   sweeps, recording the exits before each sweep and the last two sweep
   deltas as it goes, then the lifted certificate sweeps on the same
   workspace. This is how Absint computed its bounds before it could
   certify from an outcome kept elsewhere; it reads nothing of
   Analysis.info's lift inputs, so the differential battery in
   test_resident.ml checks them against an independent derivation. *)

open Tdfa_core
module Params = Tdfa_thermal.Params
module Absint = Tdfa_absint.Absint

let monotone (cfg : Transfer.config) =
  let p = cfg.Transfer.params in
  let kappa = Transfer.cooling_coeff cfg in
  let lambda = Transfer.diffusion_coeff cfg in
  kappa >= 0.0 && kappa <= 1.0 && lambda >= 0.0 && 4.0 *. lambda <= 1.0
  && p.Params.leakage_w >= 0.0
  && p.Params.leakage_temp_coeff >= 0.0
  && p.Params.read_energy_j >= 0.0
  && p.Params.write_energy_j >= 0.0

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

let predict ~settings (cfg : Transfer.config) func =
  let core =
    Flat_core.prepare ~join:Flat_core.Join_max
      ~delta_k:settings.Analysis.delta_k cfg func
  in
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
  let iterations, final_delta_k, _, _ = Analysis.sweep ~settings cfg func pass in
  let monotone = monotone cfg in
  let num_cells = Tdfa_floorplan.Layout.num_cells cfg.Transfer.layout in
  let lo_cells =
    if monotone then cells_of_points cfg (Flat_core.peak_points core)
    else Array.make num_cells neg_infinity
  in
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
  let hi_cells, lift_alpha, margin_k =
    match found with
    | Some (alpha, beta, hi) ->
      (Array.map (fun v -> v +. 1e-3) (cells_of_points cfg hi), alpha, beta)
    | None -> (Array.make num_cells infinity, 0.0, 0.0)
  in
  let peak = Array.fold_left Float.max neg_infinity in
  {
    Absint.ambient_k = cfg.Transfer.params.Params.ambient_k;
    margin_k;
    lo_cells;
    hi_cells;
    peak_lo_k = peak lo_cells;
    peak_hi_k = peak hi_cells;
    stats = { Absint.iterations; certify_sweeps = attempts; lift_alpha };
  }
