open Tdfa_dataflow
open Tdfa_thermal

let fu_power (m : Machine.t) ~block_weight bound =
  let width = m.Machine.width in
  let energy = Array.make width 0.0 in
  let cycles = ref 0.0 in
  List.iter
    (fun (label, bundles) ->
      let w = block_weight label in
      List.iter
        (fun bundle ->
          cycles := !cycles +. w;
          List.iter
            (fun (_, fu) ->
              energy.(fu) <- energy.(fu) +. (w *. m.Machine.op_energy_j))
            bundle)
        bundles)
    bound;
  let time_s = Float.max 1.0 !cycles /. m.Machine.params.Params.clock_hz in
  Array.map (fun e -> e /. time_s) energy

let steady_map m ~block_weight bound =
  let temps, _, _ =
    Rc_flat.steady_with_leakage (Machine.model m)
      ~power:(fu_power m ~block_weight bound)
  in
  temps

let evaluate m func policy =
  let loops = Loops.analyze func in
  let block_weight l = Loops.frequency loops l in
  let scheduled = Bundler.schedule_func ~width:m.Machine.width func in
  let bound = Binding.bind m policy ~block_weight scheduled in
  let temps = steady_map m ~block_weight bound in
  (temps, Metrics.summarize m.Machine.fu_layout temps)
