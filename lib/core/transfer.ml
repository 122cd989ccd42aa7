open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal

type config = {
  params : Params.t;
  layout : Layout.t;
  granularity : int;
  analysis_dt_s : float;
  block_frequency : Label.t -> float;
  max_frequency : float;
  accesses_of_instr : Label.t -> int -> Instr.t -> Access.event list;
  accesses_of_term : Label.t -> Block.terminator -> Access.event list;
}

let default_analysis_dt_s = 2.0e-6

let make_config ?(params = Params.default) ?(granularity = 1)
    ?(analysis_dt_s = default_analysis_dt_s) ?(max_frequency = 1.0) ~layout
    ~block_frequency ~accesses_of_instr ~accesses_of_term () =
  {
    params;
    layout;
    granularity;
    analysis_dt_s;
    block_frequency;
    max_frequency = Float.max 1.0 max_frequency;
    accesses_of_instr;
    accesses_of_term;
  }

let of_assignment ?params ?granularity ?analysis_dt_s ~layout (func : Func.t)
    assignment =
  let loops = Tdfa_dataflow.Loops.analyze func in
  let max_frequency =
    List.fold_left
      (fun acc (b : Block.t) ->
        Float.max acc (Tdfa_dataflow.Loops.frequency loops b.Block.label))
      1.0 func.Func.blocks
  in
  make_config ?params ?granularity ?analysis_dt_s ~max_frequency ~layout
    ~block_frequency:(fun l -> Tdfa_dataflow.Loops.frequency loops l)
    ~accesses_of_instr:(fun _ _ i -> Access.of_instr assignment i)
    ~accesses_of_term:(fun _ term -> Access.of_terminator assignment term)
    ()

(* Point-level coefficients, derived analytically from the cell-level RC
   parameters: a g x g tile has capacitance g^2*C, exchanges heat with a
   neighbouring tile through g parallel cell boundaries, and sinks through
   g^2 vertical paths. *)
let point_capacitance cfg =
  let g = float_of_int cfg.granularity in
  cfg.params.Params.cell_capacitance_j_per_k *. g *. g

let diffusion_coeff cfg =
  let g = float_of_int cfg.granularity in
  cfg.params.Params.lateral_conductance_w_per_k *. g *. cfg.analysis_dt_s
  /. point_capacitance cfg

let cooling_coeff cfg =
  let g = float_of_int cfg.granularity in
  cfg.params.Params.vertical_conductance_w_per_k *. g *. g *. cfg.analysis_dt_s
  /. point_capacitance cfg

let is_stable cfg = (4.0 *. diffusion_coeff cfg) +. cooling_coeff cfg < 1.0

let fresh_state cfg =
  Thermal_state.create cfg.layout ~granularity:cfg.granularity
    ~ambient_k:cfg.params.Params.ambient_k

(* One virtual time step: heating by the given access list (scaled by the
   block's execution frequency), leakage, diffusion, cooling. *)
let apply cfg frequency accesses state =
  let p = cfg.params in
  let state = Thermal_state.copy state in
  let c_point = point_capacitance cfg in
  (* Heating: the instruction's instantaneous access power (one access per
     cycle while its code executes), duty-cycled by the block's relative
     execution frequency. At the fixpoint, states around the hottest loop
     therefore settle at the physical steady state of executing that
     loop, while rarely-executed code heats proportionally less. *)
  let duty = Float.min 1.0 (frequency /. cfg.max_frequency) in
  List.iter
    (fun (e : Access.event) ->
      let energy =
        match e.Access.kind with
        | Access.Read -> p.Params.read_energy_j
        | Access.Write -> p.Params.write_energy_j
      in
      let power = energy *. e.Access.weight *. p.Params.clock_hz *. duty in
      let point = Thermal_state.point_of_cell state e.Access.cell in
      Thermal_state.set state point
        (Thermal_state.get state point +. (power *. cfg.analysis_dt_s /. c_point)))
    accesses;
  (* Leakage on every point (linearised, temperature-dependent). *)
  Thermal_state.map_points state (fun point t ->
      let cells = float_of_int (Thermal_state.cells_per_point state point) in
      let excess = Float.max 0.0 (t -. p.Params.ambient_k) in
      let leak =
        p.Params.leakage_w
        *. (1.0 +. (p.Params.leakage_temp_coeff *. excess))
        *. cells
      in
      t +. (leak *. cfg.analysis_dt_s /. c_point));
  (* Diffusion then cooling, both explicit. *)
  let lambda = diffusion_coeff cfg in
  let before = Thermal_state.copy state in
  Thermal_state.map_points state (fun point t ->
      let exchange =
        List.fold_left
          (fun acc q -> acc +. (Thermal_state.get before q -. t))
          0.0
          (Thermal_state.point_neighbors before point)
      in
      t +. (lambda *. exchange));
  let kappa = cooling_coeff cfg in
  Thermal_state.map_points state (fun _ t ->
      t -. (kappa *. (t -. p.Params.ambient_k)));
  state

let instr cfg label index i state =
  let accesses = cfg.accesses_of_instr label index i in
  apply cfg (cfg.block_frequency label) accesses state

let terminator cfg label term state =
  let accesses = cfg.accesses_of_term label term in
  apply cfg (cfg.block_frequency label) accesses state
