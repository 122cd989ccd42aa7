(* Expected answers, computed in-process from the repo's reference
   implementations outside any timed region. The client checks every
   response against them; a mismatch counts as a failed operation. *)

open Tdfa_ir
open Tdfa_core
module Json = Tdfa_serve.Json

let layout = Tdfa_harness.Common.standard_layout

(* analyze: the peak of the worst-case map from the boxed fixpoint (the
   differential oracle of the flat default core), on the function the
   daemon parses from the same inline IR. *)
let boxed_peak ir =
  let f = Parser.parse_func ir in
  let a =
    Tdfa_regalloc.Alloc.allocate f layout
      ~policy:Tdfa_regalloc.Policy.First_fit
  in
  let cfg = { (Tdfa.Driver.default ~layout) with Tdfa.Driver.core = Analysis.Boxed } in
  let r =
    Tdfa.Driver.run cfg
      (Tdfa.Driver.Assigned
         (a.Tdfa_regalloc.Alloc.func, a.Tdfa_regalloc.Alloc.assignment))
  in
  Thermal_state.peak (Analysis.peak_map (Analysis.info r.Tdfa.Driver.outcome))

(* trace: the RC simulator's measured steady peak, recomputed through
   the boxed [Rc_model.steady_state] with the same single leakage
   feedback round [Tdfa_exec.Driver.steady_temps] applies. *)
let trace_peak text =
  let open Tdfa_thermal in
  let sample = Result.get_ok (Tdfa_trace.Sample.parse text) in
  let compiled =
    Tdfa_trace.Compile.compile ~policy:Tdfa_trace.Mapping.Direct
      ~cells:Workloads.fp_cells sample
  in
  let trace, cell_of_var = Tdfa_trace.Compile.exec_trace compiled in
  let model =
    Rc_model.build (Tdfa_trace.Compile.layout_of_cells Workloads.fp_cells)
      Params.default
  in
  let n = Rc_model.num_nodes model in
  let reads, writes =
    Tdfa_exec.Trace.access_counts trace ~cell_of_var ~num_cells:n
  in
  let cycles = max 1 (Tdfa_exec.Trace.cycles trace) in
  let dynamic =
    Tdfa_exec.Driver.power_of_counts Params.default ~window_cycles:cycles
      ~reads ~writes
  in
  let with_leak temps =
    let leak = Rc_model.leakage_power model ~temps in
    Array.mapi (fun i p -> p +. leak.(i)) dynamic
  in
  let first =
    Rc_model.steady_state model
      ~power:(with_leak (Array.make n Params.default.Params.ambient_k))
  in
  let temps = Rc_model.steady_state model ~power:(with_leak first) in
  Array.fold_left Float.max neg_infinity temps

(* place: the round-robin baseline peak over the same task profiles. *)
let round_robin_peak () =
  let cfg = Tdfa.Driver.default ~layout in
  let rows, cols =
    Result.get_ok (Tdfa_alloc.Chip.geometry_of_string Workloads.fp_cores)
  in
  let placed =
    Tdfa.Driver.place ~geometry:(rows, cols)
      ~policy:Tdfa_alloc.Place.Round_robin cfg
      (List.map
         (fun (_, f) -> Tdfa.Driver.Unallocated f)
         Tdfa_workload.Kernels.all)
  in
  placed.Tdfa.Driver.placement.Tdfa_alloc.Place.peak_k

let k2 x = Json.Str (Printf.sprintf "%.2f" x)

(* One expectation object per request frame, in stream order. *)
let kernel_expectations ~seed =
  List.concat_map
    (fun (_, ir) ->
      let peak = boxed_peak ir in
      [ [ ("check", Json.Str "analyze"); ("peak", k2 peak) ];
        [ ("check", Json.Str "reanalyze") ];
        [ ("check", Json.Str "predict"); ("peak", Json.Float peak) ];
        [ ("check", Json.Str "lint") ] ])
    (Workloads.kernel_visits ~seed)

let floorplan_expectations ~seed =
  let rr = lazy (round_robin_peak ()) in
  List.map
    (function
      | Workloads.Place _ ->
        [ ("check", Json.Str "place"); ("rr_peak", k2 (Lazy.force rr)) ]
      | Workloads.Trace { text } ->
        [ ("check", Json.Str "trace"); ("peak", k2 (trace_peak text)) ])
    (Workloads.floorplan_requests ~seed)
