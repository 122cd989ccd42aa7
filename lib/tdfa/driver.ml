(* The public face of the analysis stack: [Tdfa.Driver.run] over one
   [Tdfa.Driver.config]. The implementation lives in [Tdfa_core.Driver]
   (it must sit below [Tdfa_optim], which builds transfer configurations
   through it); this re-export is the name everything outside the core
   calls. *)

include Tdfa_core.Driver

(* Predict mode: certified [lo, hi] steady-state bounds (Tdfa_absint)
   instead of the analysis maps — the stopped fixpoint below, a
   verified post-fixpoint above. It accepts the same closed set of
   inputs as [run]; allocation still happens for [Unallocated]. *)

type mode = Analyze | Predict | Place

let mode_name = function
  | Analyze -> "analyze"
  | Predict -> "predict"
  | Place -> "place"

type mode_result =
  | Analyzed of result
  | Predicted of Tdfa_absint.Absint.t
  | Placed of placed

(* Place mode: the jobs' thermal profiles decide where they run. Every
   input is analysed exactly as [run] would (allocation included), its
   fixpoint outcome folded into a [Tdfa_alloc.Task.t], and the multiset
   placed onto an N-core chip whose cores carry [cfg.layout].
   [cfg.cancel] bounds the annealer as well as the fixpoints. *)
and placed = {
  profiles : Tdfa_alloc.Task.t list;
      (** per input, in submission order — names from the carrier
          functions *)
  chip : Tdfa_alloc.Chip.t;  (** the chip the profiles were placed on *)
  placement : Tdfa_alloc.Place.placement;
      (** carries the round-robin baseline peak it was guarded against *)
}

let place ?(geometry = (2, 2)) ?(policy = Tdfa_alloc.Place.Greedy)
    (cfg : config) (inputs : input list) =
  let rows, cols = geometry in
  let chip =
    Tdfa_alloc.Chip.make ~params:cfg.params ~core:cfg.layout ~rows ~cols ()
  in
  let obs = cfg.obs in
  Tdfa_obs.Obs.span obs "driver.place"
    ~args:
      [
        ("cores", Tdfa_obs.Obs.Int (Tdfa_alloc.Chip.num_cores chip));
        ("tasks", Tdfa_obs.Obs.Int (List.length inputs));
      ]
    (fun () ->
      Tdfa_obs.Obs.incr obs "driver.places";
      let profiles =
        List.map
          (fun input ->
            let name = (input_func input).Tdfa_ir.Func.name in
            let r = run cfg input in
            Tdfa_alloc.Task.of_outcome ~params:cfg.params ~core:cfg.layout
              ~name r.outcome)
          inputs
      in
      {
        profiles;
        chip;
        placement =
          Tdfa_alloc.Place.run ~obs ?cancel:cfg.cancel chip policy profiles;
      })

let predict (cfg : config) input =
  let obs = cfg.obs in
  Tdfa_obs.Obs.span obs "driver.predict"
    ~args:[ ("granularity", Tdfa_obs.Obs.Int cfg.granularity) ]
    (fun () ->
      Tdfa_obs.Obs.incr obs "driver.predicts";
      let { func; config_of; _ } = config_of_input cfg input in
      let settings = cfg.settings in
      Tdfa_absint.Absint.predict ~obs
        ~delta_k:settings.Tdfa_core.Analysis.delta_k
        ~max_iterations:settings.Tdfa_core.Analysis.max_iterations
        (config_of ~granularity:cfg.granularity)
        func)

let run_mode ~mode cfg input =
  match mode with
  | Analyze -> Analyzed (run cfg input)
  | Predict -> Predicted (predict cfg input)
  | Place -> Placed (place cfg [ input ])
