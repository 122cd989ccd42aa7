(** The experiment suite: one function per figure of the paper plus the
    quantitative experiments its prose asserts (DESIGN.md, §4). Each
    prints a self-contained report to stdout and returns the headline
    numbers so tests can assert the expected shape. *)

type fig1_result = {
  peak_first_fit : float;
  peak_random : float;
  peak_chessboard : float;
  gradient_first_fit : float;
  gradient_chessboard : float;
}

val fig1 : ?quiet:bool -> unit -> fig1_result
(** Thermal maps for the three register assignment policies of Fig. 1, on
    a 50 %-pressure workload. *)

type fig2_row = {
  kernel : string;
  delta_k : float;
  iterations : int;
  converged : bool;
}

val fig2 : ?quiet:bool -> unit -> fig2_row list
(** Convergence of the Fig. 2 fixpoint across kernels and delta values,
    including a deliberately unstable configuration that diverges. *)

type e3_row = {
  live : int;
  pressure_pct : float;
  peak_by_policy : (string * float) list;
}

val e3 : ?quiet:bool -> unit -> e3_row list
(** Chessboard breakdown beyond 50 % register pressure. *)

val e4 : ?quiet:bool -> unit -> (string * (string * float) list) list
(** Peak temperature per kernel x policy; returns (kernel, (policy, peak)
    assoc). *)

type e5_row = {
  kernel : string;
  granularity : int;
  mae_k : float;
  spearman : float;
  analysis_ms : float;
  iterations : int;
}

val e5 : ?quiet:bool -> unit -> e5_row list
(** Fidelity and cost versus the granularity of the thermal state. *)

type e6_row = {
  kernel : string;
  variant : string;
  peak_k : float;
  range_k : float;
  gradient_k : float;
  back_to_back : int;  (** adjacent same-cell access pairs (scheduler metric) *)
  cycles : int;
  overhead_pct : float;  (** vs that kernel's first-fit baseline *)
}

val e6 : ?quiet:bool -> unit -> e6_row list
(** Ablation of the thermal-aware optimizations: spill/split/NOP on the
    FIR kernel, scheduling on the IDCT kernel (the one with instruction-
    level parallelism), promotion on the scale kernel (the one with a
    loop-invariant load). *)

type e7_row = {
  kernel : string;
  pre_spearman : float;
  post_spearman : float;
  pre_mae : float;
  post_mae : float;
}

val e7 : ?quiet:bool -> unit -> e7_row list
(** Pre-allocation predictive analysis versus post-assignment analysis. *)

type e9_row = {
  kernel : string;
  binding : string;
  fu_peak_k : float;
  fu_range_k : float;
  utilization : float;
}

val e9 : ?quiet:bool -> unit -> e9_row list
(** VLIW functional-unit binding (paper ref [4]): fixed vs round-robin vs
    coolest-FU binding on the ILP kernels. *)

type e10_row = {
  policy : string;
  active_banks : int;
  leakage_mw : float;
  peak_k : float;
  range_k : float;
  mttf_rel_min : float;
}

val e10 : ?quiet:bool -> unit -> e10_row list
(** §4's compromise: packing into few banks enables power gating (lower
    leakage) but concentrates heat; spreading cools but keeps every bank
    on. *)

type e11_row = {
  factor : int;
  cycles : int;
  pressure : int;
  peak_k : float;
  predicted_peak_k : float;
}

val e11 : ?quiet:bool -> unit -> e11_row list
(** §5: thermal impact of a high-level transformation — loop unrolling
    trades cycles against access density on the hot registers. *)

type e12_row = {
  variant : string;
  peak_k : float;
  slowdown_pct : float;
}

val e12 : ?quiet:bool -> unit -> e12_row list
(** Compile-time thermal awareness vs runtime DTM throttling (the
    feedback mechanism of ref [1] that §1 wants to avoid). *)

type e13_row = { variant : string; peak_k : float; mae_k : float }

val e13 : ?quiet:bool -> unit -> e13_row list
(** Interprocedural analysis: whole-program summary propagation vs a
    naive per-procedure analysis of [main], both against the measured
    whole-program map. *)

type e14_row = {
  variant : string;
  peak_k : float;
  thermal_simulations : int;  (** feedback cost: full simulator runs *)
}

val e14 : ?quiet:bool -> unit -> e14_row list
(** The paper's foil (§1): feedback-driven optimization needs a thermal
    simulation per iteration; the analysis-guided compiler gets a
    comparable map with zero. *)

type e15_row = {
  policy : string;
  transient_peak_k : float;
  half_cycles : int;
  max_swing_k : float;
  damage_index : float;
}

val e15 : ?quiet:bool -> unit -> e15_row list
(** Transient behaviour under duty-cycled execution (bursts separated by
    idle gaps): thermal cycling fatigue (§1's reliability concern) per
    assignment policy. *)

type e16_row = {
  rf : string;  (** e.g. "4x8" *)
  cells : int;
  policy : string;
  spilled : int;
  peak_k : float;
  range_k : float;
  cycles : int;
}

val e16 : ?quiet:bool -> unit -> e16_row list
(** Register-file size sweep: a small RF forces spilling (performance
    loss) and leaves no room to spread (heat); a large RF gives the
    thermal policy headroom. *)

type e17_row = {
  kernel : string;
  variant : string;
  peak_k : float;
  range_k : float;
}

val e17 : ?quiet:bool -> unit -> e17_row list
(** Post-hoc thermal register re-assignment (paper ref [3], Zhou et al.):
    permuting physical registers under a fixed instruction stream
    recovers most of the thermal-spread benefit. *)

type e18_scaling_row = { jobs : int; wall_ms : float; speedup : float }

type e18_cache_row = {
  repeat : int;
  cache_hits : int;
  cache_misses : int;
  hit_rate_pct : float;
}

val e18 :
  ?quiet:bool ->
  ?jobs_sweep:int list ->
  ?repeat_sweep:int list ->
  unit ->
  e18_scaling_row list * e18_cache_row list
(** Batch-engine scaling: wall time of the whole kernel suite versus the
    domain-pool size, and content-cache hit rate versus the suite repeat
    factor (the engine of {!Tdfa_engine.Engine}). Speedups are measured,
    not asserted — on a single-core host extra domains cost time. *)

type e19_row = {
  rule : string;
  flagged : int;  (** corpus functions the rule fired on *)
  tp : int;
  fp : int;
  fn : int;
  precision : float;
  recall : float;
}

type e19_result = {
  corpus : int;
  hot : int;  (** functions whose fixpoint peak map concentrates heat *)
  rows : e19_row list;  (** one per thermal rule plus [any-thermal-rule] *)
}

val e19 : ?quiet:bool -> ?n:int -> ?hot_k:float -> unit -> e19_result
(** The lint rules as a static hot-spot predictor, scored against the
    real thermal fixpoint over [n] generated functions (default 120):
    ground truth marks a function hot when its post-first-fit fixpoint
    peak map crosses [hot_k] (default 336 K) anywhere on the RF; the
    predictor is the pre-allocation lint context of the [lint]
    subcommand. Reports per-rule precision and recall. *)

(** {2 E20–E24: one benchmark record}

    E20–E24 each return a list of {!row}s, print them as one table and
    write them as [BENCH_*.json] through one writer:
    [{"experiment", "host_cores", "rows"}], every row an object with
    exactly the five fields below. Each experiment also asserts its
    guarantee while it runs (fingerprint equality, per-cell
    containment, never worse than round-robin) and raises on a
    violation, so a returned [1] in a [bool] row is the asserted
    outcome. [json] names the file to write ([None] skips it). *)

type row = {
  subject : string;  (** what was measured: a kernel, a pair, ["all"] *)
  metric : string;
  unit : string;  (** ["K"], ["ratio"], ["count"] or ["bool"] *)
  value : float;  (** booleans as 0/1 *)
  n : int;  (** observations behind the value, at least 1 *)
}

val e20 :
  ?quiet:bool ->
  ?n:int ->
  ?target_k:float ->
  ?json:string option ->
  unit ->
  row list
(** Incremental re-analysis across single-pass edits: every example
    kernel and [n] (default 120) generated functions run a
    thermally-guided optimize→analyze chain — a pass fires only while
    the latest analysis shows heat above [target_k] (default 337 K),
    and every step issues a re-analysis request either way. Each
    request runs cold ([Assigned]) and from the previous prior
    ([Warm_start]) through {!Tdfa.Driver.run}; the two fingerprints
    over every thermal point must be equal on every event. Rows: per
    kernel event whether the prior answered it ([identity]), events per
    set and per reuse mode, and [fingerprints_equal]. [json] defaults to
    [Some "BENCH_incremental.json"]. *)

val e21 :
  ?quiet:bool ->
  ?repeats:int ->
  ?quick:bool ->
  ?json:string option ->
  unit ->
  row list
(** Cost of the flat-array core against the boxed reference at matched
    bits: the E5/E8 kernels at the finest granularity on the standard
    8x8 RF and matmul on a 9x (and, unless [quick], 16x) finer thermal
    grid, each run through {!Tdfa.Driver.run} with [core = Boxed] and
    [core = Flat] on one prebuilt [Configured] input, plus the RC
    steady-state solve ({!Tdfa_thermal.Rc_model} against
    {!Tdfa_thermal.Rc_flat}) on 8x8 and 9x, 16x (and, unless [quick],
    100x) finer grids. Every pair is asserted
    bit-identical (engine fingerprints, raw IEEE-754 bits). Rows: per
    pair its points and its best-of-[repeats] flat-over-boxed speedup,
    and the median speedup of the fixpoint and of the steady pairs.
    [json] defaults to [Some "BENCH_core.json"]. *)

val e22 : ?quiet:bool -> ?n:int -> ?json:string option -> unit -> row list
(** Trace-ingestion skew study: synthetic Zipf(s) streams for
    s ∈ {0, 0.5, 1.0, 1.5} over 64 words ([n] samples each, default
    20000), direct-mapped onto the 8x8 file, analysed through the
    [Trace] driver input. Rows per stream: samples, windows, cells
    touched, steady-state peak, its ratio to the chessboard policy's
    peak at the 50%-pressure breakdown (E3's reference point, its own
    row), hot-cell persistence across ~10 time segments and distinct
    hot cells. The s = 0 stream is also run through a hand-assembled
    [Configured] input and asserted fingerprint-equal ([matches_ir]).
    [json] defaults to [Some "BENCH_trace.json"]. *)

val e23 :
  ?quiet:bool -> ?n:int -> ?repeats:int -> ?json:string option -> unit -> row list
(** Report card for the certified bracket: the E19 corpus ([n]
    generated functions, same seed) plus the 16 example kernels, each
    run through {!Tdfa.Driver.predict}, the same-grid fixpoint at the
    default delta (timed best-of-[repeats]) and a delta = 1e-6
    reference fixpoint, all on one [Configured] input. Checks per-cell
    containment of both fixpoints (raises on any violation). Rows: per
    kernel the fixpoint, reference and bracket peaks and its verdict;
    over all subjects the certified-hot precision and possibly-hot
    recall against the reference verdict at
    {!Tdfa_lint.Rules.hot_threshold}, the decided ratio, the median
    bracket width and the cost ratio [predict / fixpoint] time. [json]
    defaults to [Some "BENCH_absint.json"]. *)

val e24 :
  ?quiet:bool ->
  ?n:int ->
  ?chip_rows:int ->
  ?chip_cols:int ->
  ?sa_iters:int ->
  ?json:string option ->
  unit ->
  row list
(** The allocator shoot-out ({!Tdfa_alloc.Place}): [n] generated
    functions (default 120) plus the 16 example kernels, each profiled
    through {!Tdfa.Driver.run} into a {!Tdfa_alloc.Task}, then placed on
    a [chip_rows x chip_cols] chip (default 4x4) of standard-layout
    cores by round-robin, greedy, coolest-neighbor and seeded annealing
    ([sa_iters], default 2000). Raises if any thermal-aware policy
    exceeds round-robin's peak. Rows: per policy peak, gradient, score
    and improvement over round-robin, and whether all three aware
    policies strictly beat it. [json] defaults to
    [Some "BENCH_alloc.json"]. *)

val run_all : unit -> unit
(** Print every report in order. *)
