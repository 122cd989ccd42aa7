open Tdfa_thermal

let default_window_cycles = 1000

let power_of_counts (p : Params.t) ~window_cycles ~reads ~writes =
  let window_s = float_of_int window_cycles /. p.Params.clock_hz in
  Array.mapi
    (fun i r ->
      let energy =
        (float_of_int r *. p.Params.read_energy_j)
        +. (float_of_int writes.(i) *. p.Params.write_energy_j)
      in
      energy /. window_s)
    reads

let simulate_trace ?(window_cycles = default_window_cycles) model trace ~cell_of_var =
  let p = Rc_model.params model in
  let n = Rc_model.num_nodes model in
  let windows =
    Trace.windowed_counts trace ~cell_of_var ~num_cells:n ~window_cycles
  in
  let sim = Simulator.create model in
  let window_s = float_of_int window_cycles /. p.Params.clock_hz in
  Array.iter
    (fun (reads, writes) ->
      let power = power_of_counts p ~window_cycles ~reads ~writes in
      Simulator.step sim ~power ~dt:window_s)
    windows;
  sim

let steady_of_counts ?(obs = Tdfa_obs.Obs.null) ?leak_mask model ~cycles
    ~reads ~writes =
  let module Obs = Tdfa_obs.Obs in
  let t0 = if Obs.tracing obs then Obs.now_us obs else 0.0 in
  let p = Rc_model.params model in
  let n = Rc_model.num_nodes model in
  if Array.length reads <> n || Array.length writes <> n then
    invalid_arg "Driver.steady_of_counts: one count per cell";
  let cycles = max 1 cycles in
  let avg_power = power_of_counts p ~window_cycles:cycles ~reads ~writes in
  let gated i =
    match leak_mask with Some mask -> not mask.(i) | None -> false
  in
  (* One leakage feedback round: solve at ambient leakage, re-evaluate
     leakage at the solution, solve again. Both solves share one flat
     workspace — Rc_flat.solve_seq is bit-identical to the boxed
     Rc_model.steady_state. *)
  let ws = Rc_flat.make model in
  let with_leak temps =
    let leak = Rc_model.leakage_power model ~temps in
    Array.mapi (fun i pw -> if gated i then pw else pw +. leak.(i)) avg_power
  in
  let first =
    Rc_flat.solve_seq ws ~power:(with_leak (Array.make n p.Params.ambient_k))
  in
  let first_sweeps = Rc_flat.sweeps ws in
  let power = with_leak first in
  let temps = Array.copy (Rc_flat.solve_seq ws ~power) in
  (* Recorded after the fact so the span carries the sweep counts; the
     null sink skips even the clock read. *)
  if Obs.tracing obs then
    Obs.complete obs ~name:"thermal.steady" ~ts_us:t0
      ~dur_us:(Obs.now_us obs -. t0)
      ~args:
        [
          ("cells", Obs.Int n);
          ("sweeps_first", Obs.Int first_sweeps);
          ("sweeps_second", Obs.Int (Rc_flat.sweeps ws));
        ]
      ();
  temps

let steady_temps ?obs ?leak_mask model trace ~cell_of_var =
  let reads, writes =
    Trace.access_counts trace ~cell_of_var
      ~num_cells:(Rc_model.num_nodes model)
  in
  steady_of_counts ?obs ?leak_mask model ~cycles:(Trace.cycles trace) ~reads
    ~writes
