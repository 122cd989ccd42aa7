(** Preallocated steady-state workspace over the RC network: the
    Gauss–Seidel solve of {!Rc_model.steady_state} recompiled onto flat
    float arrays, specialised to the register-file grid, with per-node
    conductance sums precomputed once and every buffer allocated at
    {!make} time.

    {!solve_seq} visits the nodes in anti-diagonal wavefront order
    (diagonal [r + c = 0, 1, ...]) instead of row-major order. A node
    reads the same neighbour values either way — up and left already
    updated this sweep, right and down still from the previous one —
    and folds them in the same [Layout.neighbors] order, so the result
    is {e bit-identical} to [Rc_model.steady_state] (same float
    operations, same [Stdlib.Float.max]/[Float.abs] NaN semantics, same
    sweep count). What changes is that the updates along one diagonal
    are independent, so consecutive updates no longer wait on each
    other's division. The solve is allocation-free after the workspace
    exists (certified by the [Gc.minor_words] battery in
    [test/test_core_flat.ml]).

    The solve returns the workspace's internal temperature buffer: valid
    until the next solve on the same workspace; copy it to keep it. *)

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
