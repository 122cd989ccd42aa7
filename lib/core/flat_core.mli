(** The flat thermal core: Analysis.fixpoint's per-instruction transfer
    and block sweep recompiled onto preallocated flat float arrays.

    [prepare] compiles everything iteration-invariant — access events
    into (point, increment) arrays, point neighbourhoods into a CSR
    table, the per-point transfer coefficients — and allocates the four
    working buffers once. [pass] then sweeps the whole function in place:
    no state copies, no neighbour lists, no per-visit access lists.

    Every float operation replays the boxed path bitwise (same order,
    same values, same Stdlib.Float.max NaN semantics), so [finalize]
    materializes an {!Analysis.info}-shaped result that is
    indistinguishable — including hashtable fold order — from the boxed
    core's. Certified by the differential battery in
    [test/test_core_flat.ml]. Callers go through {!Analysis.fixpoint}
    (core = [Flat], the default); this interface exists for the kernel
    tests and benchmarks. *)

open Tdfa_ir

type join = Join_max | Join_average

type t

val prepare : join:join -> delta_k:float -> Transfer.config -> Func.t -> t
(** Compile the function against the configuration and preallocate the
    working set. The access-event callbacks of the configuration are
    consulted exactly once per program point. *)

val pass : t -> float * (Label.t * int) list
(** One sweep in reverse postorder: returns the largest clamped
    per-instruction change and the instructions still over delta, in
    encounter order — the exact contract of the boxed pass. *)

val finalize :
  t ->
  (Label.t * int, Thermal_state.t) Hashtbl.t
  * Thermal_state.t Label.Map.t
(** Materialize the flat buffers into the boxed result shape
    ([states_after], [exit_states]). *)
