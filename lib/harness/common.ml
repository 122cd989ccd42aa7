open Tdfa_floorplan
open Tdfa_thermal
open Tdfa_exec
open Tdfa_regalloc
open Tdfa_core

let standard_layout = Layout.make ~rows:8 ~cols:8 ()
let standard_model = Rc_model.build standard_layout Params.default

type run = {
  kernel : string;
  policy : Policy.t;
  alloc : Alloc.result;
  cycles : int;
  measured : float array;
  metrics : Metrics.summary;
}

let cell_fn (alloc : Alloc.result) v = Assignment.cell_of_var alloc.Alloc.assignment v

let run_policy ?(layout = standard_layout) ~name func policy =
  let model =
    if layout == standard_layout then standard_model
    else Rc_model.build layout Params.default
  in
  let alloc = Alloc.allocate func layout ~policy in
  let outcome = Interp.run_func alloc.Alloc.func in
  let measured =
    Tdfa_exec.Driver.steady_temps model outcome.Interp.trace ~cell_of_var:(cell_fn alloc)
  in
  {
    kernel = name;
    policy;
    alloc;
    cycles = outcome.Interp.cycles;
    measured;
    metrics = Metrics.summarize layout measured;
  }

(* Analyse an already-allocated function through the Driver — the
   shape the harness uses everywhere. *)
let analyze_assigned ?granularity ?settings ?analysis_dt_s
    ?(layout = standard_layout) func assignment =
  let base = Tdfa.Driver.default ~layout in
  let cfg =
    {
      base with
      Tdfa.Driver.granularity =
        Option.value granularity ~default:base.granularity;
      settings = Option.value settings ~default:base.settings;
      analysis_dt_s;
    }
  in
  (Tdfa.Driver.run cfg (Tdfa.Driver.Assigned (func, assignment))).outcome

let analyze_run ?granularity ?settings ?(layout = standard_layout) run =
  analyze_assigned ?granularity ?settings ~layout run.alloc.Alloc.func
    run.alloc.Alloc.assignment

let predicted_cells info = Thermal_state.to_cell_array (Analysis.mean_map info)
