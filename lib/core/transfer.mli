(** Per-instruction transfer function of the thermal analysis.

    §4: the analysis "relates the technology coefficients of logic
    activity and peak power found in the thermal models", "linked in an
    analytical way to the high-level information of instruction execution
    and variables assignment". Concretely, visiting one instruction
    advances a virtual analysis clock by [analysis_dt_s] and applies:

    + {b heating} — the instruction's instantaneous access power (access
      energy times clock frequency), duty-cycled by its block's execution
      frequency relative to the hottest block, deposited on the thermal
      points of its accessed cells;
    + {b leakage} — temperature-dependent static power on every point;
    + {b diffusion} — explicit lateral exchange between neighbouring
      points, with conductances scaled to the point granularity;
    + {b cooling} — vertical loss towards the sink.

    At the fixpoint the state therefore approximates the steady-state RC
    solution at the chosen granularity. The integration is explicit, so a
    too-large [analysis_dt_s] is numerically unstable — one genuine source
    of the non-convergence the paper warns about. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_thermal

type config = {
  params : Params.t;
  layout : Layout.t;
  granularity : int;
  analysis_dt_s : float;  (** virtual time per instruction visit *)
  block_frequency : Label.t -> float;
      (** estimated executions of the block per program run *)
  max_frequency : float;
      (** largest block frequency — the duty-cycle normaliser; at least
          1.0 *)
  accesses_of_instr : Label.t -> int -> Instr.t -> Access.event list;
  accesses_of_term : Label.t -> Block.terminator -> Access.event list;
}

val default_analysis_dt_s : float

val make_config :
  ?params:Params.t ->
  ?granularity:int ->
  ?analysis_dt_s:float ->
  ?max_frequency:float ->
  layout:Layout.t ->
  block_frequency:(Label.t -> float) ->
  accesses_of_instr:(Label.t -> int -> Instr.t -> Access.event list) ->
  accesses_of_term:(Label.t -> Block.terminator -> Access.event list) ->
  unit ->
  config

val of_assignment :
  ?params:Params.t ->
  ?granularity:int ->
  ?analysis_dt_s:float ->
  ?loops:Tdfa_dataflow.Loops.t ->
  layout:Layout.t ->
  Func.t ->
  Tdfa_regalloc.Assignment.t ->
  config
(** The configuration of an assigned function, and the one place it is
    built: loop-frequency-weighted duty cycling ([max_frequency] is the
    hottest block's frequency) and the exact accessed registers of every
    instruction and terminator (§4: the analysis "makes the most sense
    if applied after register assignment"). [loops] is the function's
    loop analysis when the caller already has it (the allocator's,
    {!Tdfa_regalloc.Alloc.result}); it is computed otherwise. Callers
    that inject extra events, such as {!Interproc}'s call summaries,
    override [accesses_of_instr] on the result. *)

val is_stable : config -> bool
(** Whether the explicit step satisfies the stability bound. *)

(** {2 Point-level coefficients}

    Derived analytically from the cell-level RC parameters (a g x g tile
    has capacitance g²C, exchanges heat through g parallel cell
    boundaries, sinks through g² vertical paths). Exposed so the flat
    analysis kernel precomputes the {e same} constants from the {e same}
    expressions — the flat==boxed bit-identity depends on it. *)

val point_capacitance : config -> float
val diffusion_coeff : config -> float
val cooling_coeff : config -> float

val instr : config -> Label.t -> int -> Instr.t -> Thermal_state.t -> Thermal_state.t
(** Thermal state after the instruction. *)

val terminator : config -> Label.t -> Block.terminator -> Thermal_state.t -> Thermal_state.t

val fresh_state : config -> Thermal_state.t
(** All-ambient state at the configured granularity. *)
