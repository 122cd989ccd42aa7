(** Equivalent RC network of the register-file floorplan: one thermal node
    per cell, lateral resistances between grid neighbours, a vertical
    resistance from each cell to the sink (at ambient). This is the
    ground-truth model the compile-time analysis approximates. *)

open Tdfa_floorplan

type t

val build : Layout.t -> Params.t -> t
(** Constant time: the per-node neighbour table the boxed
    {!derivative} and {!steady_state} walk is built on their first call,
    so a model that only feeds the flat solver ([Rc_flat], which reads
    {!layout} and {!params}) never builds it. *)

val layout : t -> Layout.t
val params : t -> Params.t
val num_nodes : t -> int

val derivative :
  ?out:float array -> t -> temps:float array -> power:float array -> float array
(** [dT/dt] per node for the given temperatures and injected power
    (leakage excluded — callers add it to [power]). With [out] (length
    [num_nodes], must not alias [temps]) the result is written in place
    and no array is allocated; the returned array is [out]. *)

val steady_state : ?tol:float -> ?max_sweeps:int -> t -> power:float array -> float array
(** Solve [G T = P + G_v T_amb] by Gauss–Seidel; leakage is folded in by
    the caller. Defaults: [tol = 1e-6] K, [max_sweeps = 10_000]. *)

val leakage_power : ?out:float array -> t -> temps:float array -> float array
(** Temperature-dependent leakage per cell (linearised). [out] as in
    {!derivative} (aliasing [temps] is harmless here but unsupported). *)
