(** The thermal data-flow analysis of Fig. 2: a forward analysis that
    repeatedly computes the thermal state of the RF following each
    instruction until the largest per-instruction change drops below a
    user-supplied delta — or gives up after a bounded number of
    iterations, since (unlike classic analyses on finite lattices) nothing
    guarantees convergence (§4). *)

open Tdfa_ir
open Tdfa_obs

type join_kind =
  | Max  (** conservative pointwise maximum at merge points *)
  | Average  (** pointwise mean — smoother, less conservative *)

type settings = {
  delta_k : float;  (** the paper's delta parameter *)
  max_iterations : int;  (** the "reasonable number of iterations" cap *)
  join : join_kind;
}

val default_settings : settings
(** delta = 0.05 K, 200 iterations, [Max] join. *)

type info = {
  iterations : int;
  final_delta_k : float;  (** largest last-round change *)
  unstable : (Label.t * int) list;
      (** instructions still changing by more than delta in the last
          iteration (empty when converged) *)
  initial : Thermal_state.t;  (** the all-ambient state the fixpoint starts from *)
  slots : Flat_core.slots;  (** the row of each program point *)
  states : float array;
      (** the output of Fig. 2: the state after each instruction, one
          row per slot *)
  exits : float array;
      (** the state after each terminator, one row per block *)
  sum_order : int array;  (** the row order {!mean_map} sums in *)
}
(** The fixpoint result, in the flat layout both cores fill; read it
    through {!state_after}, {!peak_map} and {!mean_map}. *)

type outcome = Converged of info | Diverged of info

exception Cancelled of { iterations : int }
(** Raised by {!fixpoint} when
    the [cancel] token trips: the carried count is how many complete
    sweeps had run. Cancellation is {e cooperative} — the token is
    consulted only at iteration boundaries, so a sweep in flight always
    finishes and no partial per-instruction state is ever observable.
    This is the hook long-running callers (request deadlines in
    [tdfa serve], SIGINT draining in the batch CLI) use to abandon an
    analysis without poisoning the process. *)

(** Which engine executes the sweeps. Both produce bit-identical
    {!info} — same state and exit rows, same iteration counts —
    certified by the differential battery in [test/test_core_flat.ml]. *)
type core =
  | Boxed
      (** the reference engine: functional {!Thermal_state} values, one
          fresh state per instruction visit *)
  | Flat
      (** the production engine: {!Flat_core}'s preallocated flat
          arrays, sweeping in place (the default) *)

val core_name : core -> string

val fixpoint :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?settings:settings ->
  ?core:core ->
  Transfer.config ->
  Func.t ->
  outcome
(** The Fig. 2 engine. [obs] (default {!Obs.null}) receives the
    structured fixpoint telemetry: a span around the whole solve, one
    [analysis.iteration] event per sweep (iteration number, largest
    per-instruction change, threshold, unstable count), the
    [analysis.escape_hatch] event when the iteration bound fires, and
    the final [analysis.verdict]. The flat core adds an
    [analysis.prepare] span before the sweeps and, once per fixpoint,
    the [analysis.instr_skipped] counter: the instruction visits its
    sweeps skipped (see {!Flat_core.pass}). Prefer driving it through
    [Tdfa.Driver.run], which owns the observability wiring.

    [cancel] (default: never) is polled before each sweep;
    @raise Cancelled when it returns [true]. *)

val prepare :
  ?obs:Obs.sink -> settings:settings -> Transfer.config -> Func.t -> Flat_core.t
(** The flat engine's workspace for [settings] ({!Flat_core.prepare}
    with its join and delta), inside an [analysis.prepare] span. *)

val sweep :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?skipped:(unit -> int) ->
  settings:settings ->
  Transfer.config ->
  Func.t ->
  (unit -> float * (Label.t * int) list) ->
  int * float * (Label.t * int) list * bool
(** The do-while of Fig. 2 that {!fixpoint} runs, over any sweep
    function with {!Flat_core.pass}'s contract: repeat until no
    instruction moves more than [settings.delta_k] or
    [settings.max_iterations] sweeps have run. Returns the sweep count,
    the last sweep's largest change, the instructions still unstable and
    whether it converged. Emits the same [analysis.fixpoint] span and
    telemetry as {!fixpoint}, and honours [cancel] the same way. When
    given, [skipped] is read once after the last sweep and added to the
    [analysis.instr_skipped] counter (pass {!Flat_core.skipped} of the
    swept workspace). For callers that drive a {!Flat_core} workspace
    themselves. *)

val info : outcome -> info
val converged : outcome -> bool

(** {2 Divergence recovery}

    §4 warns that nothing guarantees convergence (the thermal "lattice"
    is not monotone and the explicit integration can oscillate). The
    recovery ladder makes the paper's escape hatch operational: on
    [Diverged], retry with the smoothing [Average] join, then at coarser
    thermal granularities, reporting which fallback finally converged. *)

type fallback =
  | Primary  (** the analysis as configured *)
  | Average_join  (** same granularity, pointwise-mean merge *)
  | Coarser of int  (** [Average] join at this coarser granularity *)

val fallback_name : fallback -> string

type attempt = { fallback : fallback; iterations : int; converged : bool }

type recovery = {
  outcome : outcome;  (** of the rung reported in [used] *)
  used : fallback;
      (** the rung that converged — or [Primary] when none did, in which
          case [outcome] is the (diverged) primary outcome *)
  attempts : attempt list;  (** every rung tried, in order *)
}

val recovery_ladder :
  ?obs:Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?settings:settings ->
  ?core:core ->
  config_of:(granularity:int -> Transfer.config) ->
  granularity:int ->
  Func.t ->
  recovery
(** Runs the ladder [Primary; Average_join; Coarser 2g; Coarser 4g],
    stopping at the first converging rung. [config_of] rebuilds the
    transfer configuration at a requested granularity (see
    [Tdfa.Driver.run] for the usual wiring). Every rung reports an
    [analysis.recovery.rung] event to [obs], and each rung's fixpoint
    is itself instrumented as in {!fixpoint}. *)

val state_after : info -> Label.t -> int -> Thermal_state.t
(** The state after instruction [index] of block [label] (a fresh
    copy).
    @raise Not_found for an unknown program point. *)

val peak_map : info -> Thermal_state.t
(** Pointwise maximum over all per-instruction states — the predicted
    worst-case map ({!Flat_core.peak_rows}). A copy of [initial] for a
    function without instructions. *)

val mean_map : info -> Thermal_state.t
(** Pointwise mean over all per-instruction states — the predicted
    steady map (compare against the RC simulator's steady solution). A
    copy of [initial] for a function without instructions. *)
