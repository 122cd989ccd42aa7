(** A batch-engine job seen as a schedulable task: its thermal profile
    reduced to what the allocator needs.

    The analysis stack already computes, per function, a steady mean
    map and a worst-case peak map. A task folds them into sustained
    per-cell {e power} — the quantity that adds when tasks stack on a
    core and that drives the chip-level RC solve — plus the transient
    peak-over-mean headroom that never diffuses into neighbouring
    cores.

    Power derivation inverts the steady vertical path: a cell held at
    temperature [T] by the fixpoint dissipates
    [(T - ambient) * g_vert] watts, so an isolated core running the
    task reproduces the task's own register-file rise. *)

open Tdfa_floorplan

type t = {
  name : string;
  peak_k : float;  (** transient worst-case RF peak of the job *)
  mean_k : float;  (** steady mean RF temperature of the job *)
  cells_w : float array;
      (** sustained per-cell power (W), one slot per RF cell of the
          core layout the task was profiled against *)
}

val sustained_w : t -> float
(** Total sustained power, the sum of [cells_w]. *)

val transient_rise_k : t -> float
(** [max 0 (peak_k - mean_k)] — the short-lived excursion a core must
    absorb on top of its steady temperature. *)

val of_outcome :
  ?params:Tdfa_thermal.Params.t ->
  core:Layout.t ->
  name:string ->
  Tdfa_core.Analysis.outcome ->
  t
(** Profile from a fixpoint result: per-cell power from the steady mean
    map, [peak_k] from the worst-case map, negative rises clamped to
    zero power. *)

val of_scalars :
  ?params:Tdfa_thermal.Params.t ->
  core:Layout.t ->
  name:string ->
  peak_k:float ->
  mean_k:float ->
  unit ->
  t
(** Profile from an engine report's scalars alone (cache hits carry no
    maps): the mean rise spread uniformly over the core's cells. *)

val compare : t -> t -> int
(** Total order — by name, then scalars, then the power vector — used
    to canonicalize task lists so every allocator is a function of the
    task {e multiset}, not of submission order. *)
