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

type e20_event = {
  subject : string;  (** kernel or generated-function name *)
  edit : string;  (** the single pass applied before re-analysis *)
  emode : string;
      (** {!Tdfa_core.Incremental.mode_name} of the re-analysis:
          identity or cold *)
  blocks : int;
  t_cold_ms : float;  (** best-of-[repeats] cold fixpoint time *)
  t_warm_ms : float;
      (** best-of-[repeats] time through {!Tdfa_core.Incremental.analyze}
          with the previous prior *)
  e20_speedup : float;
}

type e20_class = { cls : string; count : int; cls_median : float }

type e20_result = {
  kernel_events : e20_event list;  (** the 8 examples/ir kernels *)
  corpus_events : e20_event list;  (** the generated corpus *)
  corpus_functions : int;
  kernel_median : float;
  corpus_median : float;
  e20_classes : e20_class list;  (** per-mode medians: identity and cold *)
}

val e20 :
  ?quiet:bool ->
  ?n:int ->
  ?repeats:int ->
  ?target_k:float ->
  ?json:string option ->
  unit ->
  e20_result
(** Incremental re-analysis vs cold re-analysis across
    single-pass edits: every example kernel and [n] (default 120)
    generated functions run a thermally-guided optimize→analyze chain —
    a pass fires only while the latest analysis shows heat above
    [target_k] (default 337 K), and every step issues a re-analysis
    request either way, mirroring a pass-quiescence driver. Each request
    is timed both cold and through {!Tdfa_core.Incremental.analyze}
    with the previous prior. The two fingerprints (every thermal point)
    are asserted equal on every event — any divergence raises, there is no
    tolerance. [json] (default [Some "BENCH_incremental.json"]) writes
    the machine-readable benchmark; pass [None] to skip. *)

type e21_pair = {
  e21_subject : string;  (** kernel name, or ["steady"] *)
  e21_grid : string;  (** thermal grid, e.g. ["8x8 g=1"] or ["80x80"] *)
  e21_points : int;
  t_boxed_ms : float;  (** best-of-[repeats] boxed-core time *)
  t_flat_ms : float;  (** best-of-[repeats] flat-core time *)
  e21_speedup : float;
  bit_identical : bool;
}

type e21_result = {
  fixpoint_pairs : e21_pair list;
  steady_pairs : e21_pair list;
  fixpoint_median : float;
  steady_median : float;
  all_bit_identical : bool;
}

val e21 :
  ?quiet:bool ->
  ?repeats:int ->
  ?quick:bool ->
  ?json:string option ->
  unit ->
  e21_result
(** Cost of the flat-array core ({!Tdfa_core.Flat_core} through
    [Analysis.fixpoint], {!Tdfa_thermal.Rc_flat} for the RC solve)
    against the boxed reference, at matched bits: the E5/E8 kernels at
    the finest granularity on the standard 8x8 RF, the same analysis on
    9x/16x (and 100x unless [quick]) finer thermal grids, and the RC
    steady-state solve across the same grid ladder. Every pair's results
    are asserted bit-identical (engine fingerprints for the fixpoint,
    raw IEEE-754 bits for the solver) — a mismatch raises. [json]
    (default [Some "BENCH_core.json"]) writes the machine-readable
    benchmark; pass [None] to skip. *)

type e22_row = {
  e22_s : float;  (** Zipf exponent of the generated stream *)
  e22_samples : int;
  e22_windows : int;
  e22_cells_touched : int;
  e22_peak_k : float;  (** analysis worst-case peak over the stream *)
  e22_vs_chessboard : float;
      (** peak relative to the chessboard policy's at the 50%-pressure
          breakdown point — how a skewed measured stream compares to the
          worst structured IR workload *)
  e22_persistence : float;
      (** fraction of consecutive time segments whose hottest cell is
          the same cell (1.0 = one cell stays hottest throughout) *)
  e22_distinct_hot : int;  (** distinct hottest cells across segments *)
}

type e22_result = {
  e22_rows : e22_row list;  (** one per Zipf exponent *)
  e22_chessboard_peak_k : float;
  e22_uniform_matches_ir : bool;
      (** the s = 0 stream through the [Trace] input fingerprints equal
          to the same events through a hand-built [Configured] input *)
}

val e22 : ?quiet:bool -> ?n:int -> ?json:string option -> unit -> e22_result
(** Trace-ingestion skew study: synthetic Zipf(s) streams for
    s ∈ {0, 0.5, 1.0, 1.5} over 64 words ([n] samples each, default
    20000), direct-mapped onto the 8x8 file, analysed through the
    [Trace] driver input. Reports the steady-state peak per exponent,
    its ratio to the chessboard policy's peak at the 50%-pressure
    breakdown (E3's reference point), and hot-cell persistence across
    ~10 time segments. The s = 0 (uniform) stream is additionally run
    through a hand-assembled [Configured] input and asserted
    fingerprint-equal to the [Trace] path — a mismatch raises. [json]
    (default [Some "BENCH_trace.json"]) writes the machine-readable
    benchmark; pass [None] to skip. *)

type e23_row = {
  e23_name : string;
  e23_peak_k : float;  (** peak of the fixpoint at the default delta *)
  e23_limit_k : float;  (** peak of the delta = 1e-6 reference fixpoint *)
  e23_lo_k : float;  (** certified lower bound on the peak *)
  e23_hi_k : float;  (** certified upper bound *)
  e23_verdict : string;  (** certified-hot / straddles / certified-cool *)
  e23_predict_ms : float;  (** [predict], best of the repeats *)
  e23_fixpoint_ms : float;  (** the same-grid fixpoint, best of the repeats *)
}

type e23_result = {
  e23_corpus : int;
  e23_hot : int;  (** functions hot at the reference fixpoint *)
  e23_contained : bool;
      (** every cell of the stopped and the reference fixpoint landed
          inside its certified interval (a violation raises instead of
          reporting [false]) *)
  e23_certified_hot : int;
  e23_possibly_hot : int;
  e23_precision : float;  (** of certified-hot; the zero-FP gate is 1.0 *)
  e23_recall : float;  (** of possibly-hot; the zero-FN gate is 1.0 *)
  e23_kernels_decided : int;  (** kernels with a definite verdict *)
  e23_corpus_decided : int;  (** corpus functions with a definite verdict *)
  e23_decided_ratio : float;  (** over corpus and kernels together *)
  e23_tightness_median_k : float;  (** median [hi - lo] of the peak *)
  e23_cost_ratio : float;
      (** total predict time over total same-grid fixpoint time *)
  e23_kernel_rows : e23_row list;  (** the 16 example kernels, named *)
}

val e23 :
  ?quiet:bool ->
  ?n:int ->
  ?repeats:int ->
  ?json:string option ->
  unit ->
  e23_result
(** Report card for the certified bracket ({!Tdfa_absint.Absint}): the
    E19 corpus ([n] generated functions, same seed) plus the 16 example
    kernels, each run through [predict], the same-grid fixpoint at the
    default delta (timed best-of-[repeats]) and a delta = 1e-6
    reference fixpoint. Checks per-cell containment of both fixpoints
    (raises on any violation), scores the certified-hot / possibly-hot
    pair against the reference verdict at
    {!Tdfa_lint.Rules.hot_threshold} (precision resp. recall must be
    1.0), and reports the decided ratio, the median bracket width and
    the cost ratio [predict_ms / fixpoint_ms]. [json] (default
    [Some "BENCH_absint.json"]) writes the machine-readable benchmark;
    pass [None] to skip. *)

type e24_row = {
  e24_policy : string;
  e24_peak_k : float;
  e24_gradient_k : float;
  e24_score : float;
  e24_improvement_k : float;  (** round-robin peak minus this peak *)
}

type e24_result = {
  e24_tasks : int;
  e24_cores : int;
  e24_rows : e24_row list;  (** round-robin first, then the aware policies *)
  e24_all_beat_blind : bool;
      (** strict improvement on every thermal-aware row; the weak
          never-worse guarantee is asserted (a violation raises) *)
}

val e24 :
  ?quiet:bool ->
  ?n:int ->
  ?chip_rows:int ->
  ?chip_cols:int ->
  ?sa_iters:int ->
  ?json:string option ->
  unit ->
  e24_result
(** The allocator shoot-out ({!Tdfa_alloc.Place}): [n] generated
    functions (default 120) plus the 16 example kernels, each profiled
    through the real fixpoint into a {!Tdfa_alloc.Task}, then placed on
    a [chip_rows x chip_cols] chip (default 4x4) of standard-layout
    cores by round-robin, greedy, coolest-neighbor and seeded annealing
    ([sa_iters], default 2000). Raises if any thermal-aware policy
    exceeds round-robin's peak — the structural never-worse guarantee —
    and reports whether all three strictly beat it. [json] (default
    [Some "BENCH_alloc.json"]) writes the machine-readable benchmark;
    pass [None] to skip. *)

val run_all : unit -> unit
(** Print every report in order. *)
