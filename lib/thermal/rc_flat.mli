(** Preallocated steady-state workspace over the RC network: the
    Gauss–Seidel solve of {!Rc_model.steady_state} recompiled onto flat
    float arrays, specialised to the register-file grid, with every
    buffer allocated at {!make} time.

    The workspace stores the grid anti-diagonal-major ("skewed"):
    diagonal [r + c = 0, 1, ...] after diagonal, each one contiguous,
    rows ascending. {!make} builds that permutation and the skewed
    per-node conductance sums; {!solve_seq} fills a skewed
    [rhs = power + g_v * ambient], runs one C kernel call
    ([rc_sweep_stubs.c]) per sweep, keeps the [tol] and [max_sweeps]
    tests and the NaN stop in OCaml, and copies the solution back to
    row-major order. Returning to OCaml between sweeps lets a domain
    join a stop-the-world minor GC promptly on any grid size.

    Why the result is {e bit-identical} to [Rc_model.steady_state]
    (same float operations on the same values, same sweep count):
    - Updating diagonal after diagonal, a node reads what the row-major
      sweep reads: up and left (diagonal [d - 1]) already updated this
      sweep, right and down (diagonal [d + 1]) still from the previous
      one. The nodes of one diagonal do not read each other, so the
      kernel updates a diagonal's interior nodes two at a time with
      16-byte vector add, mul and div, whose lanes round exactly like
      the scalar operations. The first and last node of each diagonal,
      and every node of a diagonal of at most two, lie on the grid's
      edge and take a scalar path that tests which neighbours exist.
    - Every node folds [(((0.0 + g*up) + g*left) + g*right) + g*down]
      over the neighbours it has, in [Layout.neighbors] order, adds it
      to its [rhs] and divides by its conductance sum, as the boxed
      solver does.
    - A sweep's worst change is a max with [Stdlib.Float.max]'s NaN
      semantics, which is order-invariant, so the stop test sees the
      same value. Only NaN payloads may differ, since C may commute an
      addition; the battery compares NaN positions.
    - The kernel must compile with [-ffp-contract=off] and without
      fast-math or [-march]: GNU C contracts [a*b + c] into a fused
      multiply-add wherever the target has one, which rounds once
      instead of twice and changes bits. The [foreign_stubs] stanza
      sets the flag and a CI step rejects stanzas that drop it.

    The solve is allocation-free after the workspace exists (certified
    by the [Gc.minor_words] battery in [test/test_core_flat.ml]). It
    returns the workspace's internal row-major temperature buffer:
    valid until the next solve on the same workspace; copy it to keep
    it. *)

type t

val make : Rc_model.t -> t
(** Compile the model's grid into the flat workspace. *)

val num_nodes : t -> int

val temps : t -> float array
(** The internal temperature buffer (last solve's solution). *)

val sweeps : t -> int
(** Sweeps run by the last solve (0 before the first). *)

val solve_seq :
  ?tol:float -> ?max_sweeps:int -> t -> power:float array -> float array
(** Gauss–Seidel, bit-identical to
    [Rc_model.steady_state ?tol ?max_sweeps] on the same model and
    power. Defaults: [tol = 1e-6] K, [max_sweeps = 10_000]. The inner
    loop performs no allocation.
    @raise Invalid_argument when [power] length differs from the
    model's node count. *)

val steady_with_leakage :
  ?leak_mask:bool array ->
  Rc_model.t ->
  power:float array ->
  float array * int * int
(** The steady temperatures under [power] plus one leakage feedback
    round, on a fresh workspace: solve at ambient leakage, re-evaluate
    {!Rc_model.leakage_power} at that solution, solve again. Bit-identical
    to the same two rounds through [Rc_model.steady_state].
    [leak_mask.(i) = false] power-gates cell [i]: it contributes no
    leakage. Returns a fresh temperature array and the sweeps each of
    the two solves ran.
    @raise Invalid_argument when [power] length differs from the
    model's node count. *)
