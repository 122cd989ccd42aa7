(** The flat thermal core: Analysis.fixpoint's per-instruction transfer
    and block sweep recompiled onto preallocated flat float arrays.

    [prepare] compiles everything iteration-invariant — access events
    into (point, increment) arrays, the per-point cell counts and the
    seven transfer coefficients — and allocates the working buffers
    once. [pass] then sweeps the whole function in place. Each program
    point heats in place in OCaml and then makes one C call
    ([flat_step_stubs.c], [[@@noalloc]]): leakage into a scratch row,
    diffusion with cooling as a single row-major grid stencil
    (neighbours at fixed offsets; only rim points test which exist),
    the largest change against the point's last state and the store of
    the new state into its row. Leakage and the interior of every row
    run two points per vector instruction. No state copies, no
    neighbour lists, no per-visit access lists, and nothing allocated
    but the unstable list a pass returns. Heating, block skipping,
    joins and the unstable list stay in OCaml.

    Its state and exit buffers, laid out by {!slots}, become the arrays
    of {!Analysis.info} uncopied; the boxed reference engine packs its
    result into the same layout. Every float operation replays the boxed
    path bitwise: the same operations on the same values in the same
    order (the stencil's fold [0.0 + up + left + right + down], the
    division [leak *. dt /. c_point] with no reciprocal), each vector
    lane rounding as the scalar would, the C kernel compiled with
    [-ffp-contract=off] so no multiply-add is fused, and
    Stdlib.Float.max's NaN and signed-zero semantics. Both cores
    therefore fill the same bits, up to the payload of a NaN, which
    neither OCaml nor C fixes — certified by the differential battery
    in [test/test_core_flat.ml]. Callers go through {!Analysis.fixpoint};
    the sweep interface exists for [Tdfa_absint], the kernel tests and
    benchmarks. *)

open Tdfa_ir

type join = Join_max | Join_average

type slots = {
  blocks : Label.t array;
      (** the reachable blocks in reverse postorder; block [b]'s exit is
          exit row [b] *)
  first : int array;
      (** instruction [i] of block [b] is state row [first.(b) + i];
          [first.(Array.length blocks)] is the row count *)
  block_row : int Label.Map.t;  (** [b] of each label in [blocks] *)
}
(** The slot numbering of the flat result (rows of [n_points] floats). *)

val slots : Func.t -> slots
(** The numbering both cores use. *)

val iter_slots : slots -> (Label.t -> int -> int -> unit) -> unit
(** [iter_slots s f] calls [f label index row] for each row, in order. *)

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

val finalize : t -> slots * float array * float array
(** The slot table and the state and exit buffers, handed over without
    copying: a later sweep of the workspace overwrites them. *)

val recycle : float array -> unit
(** [recycle states] hands a state buffer whose last reader is done
    with it (the [states] of an {!Analysis.info} nothing will read
    again) to the next {!prepare} on this domain that needs a buffer of
    exactly its length; that [prepare] takes it instead of allocating,
    and its first sweep overwrites every row. One buffer is kept; a
    later [recycle] replaces it. A daemon answering trace requests
    thereby keeps one multi-megabyte state buffer instead of
    allocating a fresh one per request and leaving the last ones to the
    major GC. Never recycle a buffer that is still read. *)

val exits : t -> float array
(** The live exit buffer: what the next [pass] joins from (an
    unreachable predecessor has no row and joins as ambient). Shared,
    not copied: snapshot it with
    [Array.copy] or [Array.blit]. Callers must never write into it:
    [pass] skips a block on the assumption that its exit row is the one
    it computed ({!post_fixpoint} is the one way to load exits). *)

val peak_rows : n_points:int -> ambient:float -> float array -> float array
(** The per-point [Stdlib.Float.max] of the rows of a state buffer,
    folded from the last row to the first, bit for bit (fresh array;
    all [ambient] without rows): {!Analysis.peak_map}'s points. *)

val peak_points : t -> float array
(** {!peak_rows} of the last sweep's instruction states. *)

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
