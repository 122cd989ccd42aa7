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
    encounter order — the exact contract of the boxed pass.

    A block is skipped, not recomputed, when its joined incoming state
    is bit-equal to the one its stored states were computed from and
    its exit row is finite: the transfer is deterministic and a NaN or
    infinity never leaves a point once reached, so every recomputed
    state would be bit-equal and every change exactly 0. Its
    instructions then count as change 0 (unstable only when
    [0 > delta_k]), so the result is the full sweep's, bit for bit. *)

val skipped : t -> int
(** Instruction visits {!pass} has skipped since {!prepare}. *)

val finalize :
  t ->
  (Label.t * int, Thermal_state.t) Hashtbl.t
  * Thermal_state.t Label.Map.t
(** Materialize the flat buffers into the boxed result shape
    ([states_after], [exit_states]). *)

val exits : t -> float array
(** The live exit buffer: one row of points per label of the function
    (in [Func.labels] order), the state after each terminator — what the
    next [pass] joins from. Shared, not copied: snapshot it with
    [Array.copy] or [Array.blit]. Callers must never write into it:
    [pass] skips a block on the assumption that its exit row is the one
    it computed ({!post_fixpoint} is the one way to load exits). *)

val peak_points : t -> float array
(** Per-point maximum over the last sweep's instruction states (fresh
    array) — the point values of {!Analysis.peak_map}, bit for bit.
    All-ambient for a function without instructions. *)

val post_fixpoint : t -> float array -> bool
(** [post_fixpoint t u] is the certificate sweep: load [u] (same length
    as {!exits}) as the exit states, run one [pass], and return whether
    every new exit is [<= u] (NaN fails). On a monotone transfer
    (cooling coefficient <= 1, degree x diffusion coefficient <= 1,
    [Join_max] or [Join_average]) a [true] makes [u] a post-fixpoint of
    the sweep, so every iterate from ambient stays below [u], and
    [peak_points] afterwards bounds every instruction state they reach.
    Overwrites the workspace and invalidates every block's skip
    snapshot, so its sweep recomputes every block. *)
