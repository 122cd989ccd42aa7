(** Thermal-aware task-to-core allocation (PAPERS.md: Hung et al.).

    Four policies place a multiset of {!Task}s onto the cores of a
    {!Chip} to minimize the chip's peak temperature and spatial
    gradient:

    - {e round-robin} — the thermally blind baseline every experiment
      compares against: canonical task order, task [k] on core
      [k mod n];
    - {e greedy} — hottest task to coolest core: tasks by descending
      sustained power, each placed on the core that minimizes the
      resulting score, re-solving the chip each step;
    - {e coolest-neighbor} — like greedy, but the target core minimizes
      its own local peak temperature (steady plus stacking plus
      transient) plus half the mean of its neighbours' steady
      temperatures, so placements spread away from already-hot
      neighbourhoods at one chip solve per task instead of one per
      candidate core;
    - {e annealed} — seeded simulated annealing over single-task moves
      and pair swaps, starting from the greedy solution.

    Three structural guarantees make the property battery in
    [test/test_alloc.ml] sound by construction rather than by luck:

    + every policy canonicalizes its input by {!Task.compare} first, so
      allocation is a permutation-invariant function of the task
      multiset;
    + greedy and coolest-neighbor keep the round-robin placement as a
      fallback candidate, and annealing starts from greedy and only
      returns an improvement — so no thermal-aware policy ever exceeds
      round-robin's peak temperature;
    + annealing at zero iterations performs no moves and returns the
      greedy placement exactly. *)

type policy =
  | Round_robin  (** thermally blind baseline *)
  | Greedy
  | Coolest_neighbor
  | Annealed of { seed : int; iters : int }

val policy_name : policy -> string
(** ["round-robin"], ["greedy"], ["coolest"], ["anneal(seed=S,iters=N)"]. *)

val policy_of_string :
  ?seed:int -> ?iters:int -> string -> (policy, string) result
(** Parse a CLI policy name: ["round-robin"] (or ["rr"]), ["greedy"],
    ["coolest"], ["anneal"]. [seed] (default 0) and [iters] (default
    2000) apply to ["anneal"]. *)

type placement = {
  policy : policy;
  assignment : (string * int) list;
      (** task name -> core index, in canonical task order *)
  core_temps_k : float array;  (** steady per-core temperatures *)
  local_peak_k : float array;
      (** per-core worst temperature: steady core temperature plus the
          within-core stacking excess plus the largest transient rise
          of the tasks on it *)
  peak_k : float;  (** max over [local_peak_k] *)
  gradient_k : float;
      (** largest steady temperature difference across adjacent cores *)
  score : float;  (** [peak_k + gradient_weight * gradient_k] *)
  round_robin_peak_k : float;
      (** peak of the round-robin placement of the same tasks (in
          canonical order, except under {!evaluate}): the baseline every
          thermal-aware policy is guarded against *)
}

val default_gradient_weight : float
(** 0.1 — peak dominates, gradient breaks ties between placements of
    equal peak. *)

val evaluate :
  ?gradient_weight:float -> Chip.t -> Task.t array -> int array -> placement
(** Score an explicit assignment ([assign.(i)] is the core of task
    [i]): per-core sustained powers, chip solve, local peaks,
    gradient. The [policy] field of the result is meaningless (set to
    [Round_robin]); callers override it.
    @raise Invalid_argument on length mismatch or an out-of-range
    core. *)

val run :
  ?obs:Tdfa_obs.Obs.sink ->
  ?cancel:(unit -> bool) ->
  ?gradient_weight:float ->
  Chip.t ->
  policy ->
  Task.t list ->
  placement
(** Allocate the multiset under the policy. Deterministic: annealing
    draws from [Random.State.make] seeded with the policy's [seed].
    Candidates are scored from per-task sums computed once per run and
    precomputed core adjacency; each score re-derives only the cores
    whose task set changed since the previous score, with the same
    float operations in the same order as a full rescore, so results
    are bit-identical to it. Only the returned assignment is turned
    into a [placement]. Traced as an [alloc.place] span (cores, tasks,
    policy); annealing adds one [alloc.anneal] instant (accepted moves,
    improving moves, final temperature, and [cores_rederived], the
    cores the scorer re-derived over the whole run). Annealing polls [cancel]
    (default: never) every 256 moves.
    @raise Tdfa_core.Analysis.Cancelled when [cancel] trips, carrying
    the number of completed moves. *)

val exhaustive :
  ?gradient_weight:float -> ?limit:int -> Chip.t -> Task.t list -> placement
(** The brute-force oracle: enumerate all [num_cores ^ num_tasks]
    assignments and return the best score (ties broken toward the
    lexicographically smallest assignment, so the optimum is unique
    and deterministic). Intended for the differential battery only.
    @raise Invalid_argument when the enumeration would exceed [limit]
    (default 1_000_000) placements. *)
