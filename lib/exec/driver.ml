open Tdfa_thermal

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

let steady_of_counts ?(obs = Tdfa_obs.Obs.null) ?leak_mask model ~cycles
    ~reads ~writes =
  let module Obs = Tdfa_obs.Obs in
  let t0 = if Obs.tracing obs then Obs.now_us obs else 0.0 in
  let p = Rc_model.params model in
  let n = Rc_model.num_nodes model in
  if Array.length reads <> n || Array.length writes <> n then
    invalid_arg "Driver.steady_of_counts: one count per cell";
  let cycles = max 1 cycles in
  let temps, sweeps_first, sweeps_second =
    Rc_flat.steady_with_leakage ?leak_mask model
      ~power:(power_of_counts p ~window_cycles:cycles ~reads ~writes)
  in
  (* Recorded after the fact so the span carries the sweep counts; the
     null sink skips even the clock read. *)
  if Obs.tracing obs then
    Obs.complete obs ~name:"thermal.steady" ~ts_us:t0
      ~dur_us:(Obs.now_us obs -. t0)
      ~args:
        [
          ("cells", Obs.Int n);
          ("sweeps_first", Obs.Int sweeps_first);
          ("sweeps_second", Obs.Int sweeps_second);
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
