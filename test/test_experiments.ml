(* Integration tests: the experiment suite reproduces the *shape* of the
   paper's claims (see DESIGN.md section 6). These run the experiments in
   quiet mode and assert the orderings, not absolute temperatures. *)

open Tdfa_harness

let test_fig1_policy_ordering () =
  let r = Experiments.fig1 ~quiet:true () in
  (* Fig. 1: first-fit shows the worst hot spot; chessboard homogenises.
     Peak ordering: first-fit > random > chessboard (paper's qualitative
     result at 50% pressure). *)
  Alcotest.(check bool) "first-fit hotter than random" true
    (r.Experiments.peak_first_fit > r.Experiments.peak_random);
  Alcotest.(check bool) "random hotter than chessboard" true
    (r.Experiments.peak_random > r.Experiments.peak_chessboard);
  Alcotest.(check bool) "gradient: first-fit steeper than chessboard" true
    (r.Experiments.gradient_first_fit > r.Experiments.gradient_chessboard)

let test_fig2_convergence_shape () =
  let rows = Experiments.fig2 ~quiet:true () in
  (* All regular kernels converge at every delta... *)
  List.iter
    (fun (row : Experiments.fig2_row) ->
      if row.Experiments.kernel <> "fib (dt too large)" then
        Alcotest.(check bool)
          (row.Experiments.kernel ^ " converges")
          true row.Experiments.converged)
    rows;
  (* ...the unstable configuration does not... *)
  (match
     List.find_opt
       (fun (r : Experiments.fig2_row) ->
         r.Experiments.kernel = "fib (dt too large)")
       rows
   with
   | Some r -> Alcotest.(check bool) "unstable diverges" false r.Experiments.converged
   | None -> Alcotest.fail "missing unstable row");
  (* ...and iterations grow monotonically as delta shrinks, per kernel. *)
  let kernels =
    List.sort_uniq String.compare
      (List.map (fun (r : Experiments.fig2_row) -> r.Experiments.kernel) rows)
  in
  List.iter
    (fun k ->
      if k <> "fib (dt too large)" then begin
        let of_kernel =
          List.filter (fun (r : Experiments.fig2_row) -> r.Experiments.kernel = k) rows
          |> List.sort (fun (a : Experiments.fig2_row) b ->
                 Float.compare b.Experiments.delta_k a.Experiments.delta_k)
        in
        let rec monotone = function
          | (a : Experiments.fig2_row) :: (b :: _ as rest) ->
            a.Experiments.iterations <= b.Experiments.iterations && monotone rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) (k ^ " iterations monotone in delta") true
          (monotone of_kernel)
      end)
    kernels

let test_e3_chessboard_breakdown () =
  let rows = Experiments.e3 ~quiet:true () in
  let peak row policy = List.assoc policy row.Experiments.peak_by_policy in
  (* At 50% pressure the chessboard pattern is realisable and beats
     first-fit clearly. *)
  let at_50 =
    List.find (fun r -> r.Experiments.live = 28) rows
  in
  Alcotest.(check bool) "chessboard beats first-fit at 50%" true
    (peak at_50 "chessboard" < peak at_50 "first-fit");
  Alcotest.(check bool) "chessboard competitive with random at 50%" true
    (peak at_50 "chessboard" < peak at_50 "random" +. 0.5);
  (* Above 50% its advantage over random collapses (the paper's
     breakdown claim): the margin shrinks from 50% to high pressure. *)
  let margin r = peak r "chessboard" -. peak r "random" in
  let at_high = List.find (fun r -> r.Experiments.live = 48) rows in
  Alcotest.(check bool) "advantage shrinks beyond half occupancy" true
    (margin at_high > margin at_50)

let test_e4_thermal_policies_win () =
  let results = Experiments.e4 ~quiet:true () in
  (* On every kernel, the best policy is never first-fit, and
     thermally-motivated assignment (thermal-spread/random/chessboard)
     beats it. *)
  List.iter
    (fun (kernel, peaks) ->
      let ff = List.assoc "first-fit" peaks in
      let ts = List.assoc "thermal-spread" peaks in
      Alcotest.(check bool)
        (kernel ^ ": thermal-spread cooler than first-fit")
        true (ts < ff))
    results

let test_e5_granularity_tradeoff () =
  let rows = Experiments.e5 ~quiet:true () in
  let kernels =
    List.sort_uniq String.compare
      (List.map (fun (r : Experiments.e5_row) -> r.Experiments.kernel) rows)
  in
  List.iter
    (fun k ->
      let of_kernel =
        List.filter
          (fun (r : Experiments.e5_row) -> r.Experiments.kernel = k)
          rows
      in
      let find g =
        List.find
          (fun (r : Experiments.e5_row) -> r.Experiments.granularity = g)
          of_kernel
      in
      let fine = find 1 and coarse = find 8 in
      Alcotest.(check bool) (k ^ ": finer is at least as accurate") true
        (fine.Experiments.mae_k <= coarse.Experiments.mae_k +. 0.05);
      Alcotest.(check bool) (k ^ ": fine granularity orders cells well") true
        (fine.Experiments.spearman > 0.9))
    kernels

let test_e6_optimizations_help () =
  let rows = Experiments.e6 ~quiet:true () in
  let find kernel variant =
    List.find
      (fun (r : Experiments.e6_row) ->
        r.Experiments.kernel = kernel && r.Experiments.variant = variant)
      rows
  in
  let base = find "fir" "baseline (first-fit)" in
  (* Splitting + thermal-spread reduces peak and range. *)
  let comb = find "fir" "split + thermal-spread" in
  Alcotest.(check bool) "combined reduces peak" true
    (comb.Experiments.peak_k < base.Experiments.peak_k);
  Alcotest.(check bool) "combined reduces range" true
    (comb.Experiments.range_k < base.Experiments.range_k);
  (* NOP insertion cools but costs cycles. *)
  let nop = find "fir" "nop insertion" in
  Alcotest.(check bool) "nop cools" true
    (nop.Experiments.peak_k < base.Experiments.peak_k);
  Alcotest.(check bool) "nop costs cycles" true
    (nop.Experiments.cycles > base.Experiments.cycles);
  (* Scheduling reduces back-to-back accesses at zero cycle cost. *)
  let sbase = find "idct_row" "baseline (first-fit)" in
  let sched = find "idct_row" "schedule (thermal)" in
  Alcotest.(check bool) "schedule reduces b2b" true
    (sched.Experiments.back_to_back < sbase.Experiments.back_to_back);
  Alcotest.(check int) "schedule is free" sbase.Experiments.cycles
    sched.Experiments.cycles;
  (* Promotion speeds up the scale kernel. *)
  let pbase = find "scale" "baseline (first-fit)" in
  let prom = find "scale" "promote" in
  Alcotest.(check bool) "promotion saves cycles" true
    (prom.Experiments.cycles < pbase.Experiments.cycles)

let test_e7_post_ra_beats_pre_ra () =
  let rows = Experiments.e7 ~quiet:true () in
  List.iter
    (fun (r : Experiments.e7_row) ->
      Alcotest.(check bool)
        (r.Experiments.kernel ^ ": post-RA ranks at least as well")
        true
        (r.Experiments.post_spearman >= r.Experiments.pre_spearman -. 0.01);
      Alcotest.(check bool)
        (r.Experiments.kernel ^ ": post-RA spearman high")
        true
        (r.Experiments.post_spearman > 0.9))
    rows

let test_e9_fixed_binding_worst () =
  let rows = Experiments.e9 ~quiet:true () in
  let kernels =
    List.sort_uniq String.compare
      (List.map (fun (r : Experiments.e9_row) -> r.Experiments.kernel) rows)
  in
  List.iter
    (fun k ->
      let find binding =
        List.find
          (fun (r : Experiments.e9_row) ->
            r.Experiments.kernel = k && r.Experiments.binding = binding)
          rows
      in
      let fixed = find "fixed" and coolest = find "coolest" in
      Alcotest.(check bool) (k ^ ": fixed binding has steeper FU gradient") true
        (fixed.Experiments.fu_range_k > coolest.Experiments.fu_range_k);
      Alcotest.(check bool) (k ^ ": fixed binding at least as hot") true
        (fixed.Experiments.fu_peak_k >= coolest.Experiments.fu_peak_k))
    kernels

let test_e10_gating_tradeoff () =
  let rows = Experiments.e10 ~quiet:true () in
  let find policy =
    List.find
      (fun (r : Experiments.e10_row) -> r.Experiments.policy = policy)
      rows
  in
  let pack = find "bank-pack" and spread = find "thermal-spread" in
  (* The compromise of §4: packing saves leakage, spreading saves
     temperature and lifetime. *)
  Alcotest.(check bool) "packing gates banks" true
    (pack.Experiments.active_banks < spread.Experiments.active_banks);
  Alcotest.(check bool) "packing leaks less" true
    (pack.Experiments.leakage_mw < spread.Experiments.leakage_mw);
  Alcotest.(check bool) "spreading is cooler" true
    (spread.Experiments.peak_k < pack.Experiments.peak_k);
  Alcotest.(check bool) "spreading lives longer" true
    (spread.Experiments.mttf_rel_min > pack.Experiments.mttf_rel_min)

let test_e11_unroll_tradeoff () =
  let rows = Experiments.e11 ~quiet:true () in
  let find factor =
    List.find
      (fun (r : Experiments.e11_row) -> r.Experiments.factor = factor)
      rows
  in
  let base = find 1 and deep = find 8 in
  Alcotest.(check bool) "unrolling is faster" true
    (deep.Experiments.cycles < base.Experiments.cycles);
  Alcotest.(check bool) "unrolling is hotter" true
    (deep.Experiments.peak_k > base.Experiments.peak_k);
  (* The compile-time analysis predicts the same trend without any
     simulation. *)
  Alcotest.(check bool) "analysis predicts the trend" true
    (deep.Experiments.predicted_peak_k > base.Experiments.predicted_peak_k)

let test_e12_dtm_vs_compile_time () =
  let rows = Experiments.e12 ~quiet:true () in
  let find v =
    List.find
      (fun (r : Experiments.e12_row) -> r.Experiments.variant = v)
      rows
  in
  let base = find "first-fit, no DTM" in
  let dtm = find "first-fit + DTM (throttle 0.5)" in
  let tuned = find "thermal-aware compile, no DTM" in
  Alcotest.(check bool) "DTM caps the peak" true
    (dtm.Experiments.peak_k < base.Experiments.peak_k);
  Alcotest.(check bool) "DTM costs runtime" true
    (dtm.Experiments.slowdown_pct > 0.0);
  Alcotest.(check bool) "compile-time reaches the lowest peak" true
    (tuned.Experiments.peak_k < dtm.Experiments.peak_k)

let test_e13_interprocedural_wins () =
  let rows = Experiments.e13 ~quiet:true () in
  let find v =
    List.find (fun (r : Experiments.e13_row) -> r.Experiments.variant = v) rows
  in
  let naive = find "per-procedure (main only)" in
  let inter = find "interprocedural (summaries)" in
  Alcotest.(check bool) "interprocedural more accurate" true
    (inter.Experiments.mae_k < naive.Experiments.mae_k);
  Alcotest.(check bool) "naive underestimates the peak" true
    (naive.Experiments.peak_k < inter.Experiments.peak_k)

let test_e14_analysis_replaces_feedback () =
  let rows = Experiments.e14 ~quiet:true () in
  let find v =
    List.find (fun (r : Experiments.e14_row) -> r.Experiments.variant = v) rows
  in
  let base = find "first-fit (round 0)" in
  let tuned = find "analysis-guided (thermal-spread)" in
  Alcotest.(check int) "no simulation needed" 0 tuned.Experiments.thermal_simulations;
  Alcotest.(check bool) "beats the baseline" true
    (tuned.Experiments.peak_k < base.Experiments.peak_k);
  (* Every feedback round pays a simulation. *)
  List.iter
    (fun (r : Experiments.e14_row) ->
      if r.Experiments.variant <> tuned.Experiments.variant then
        Alcotest.(check bool) "feedback pays simulations" true
          (r.Experiments.thermal_simulations >= 1))
    rows;
  (* The analysis-guided result is at least competitive with the last
     feedback round. *)
  let last_feedback = find "feedback round 3" in
  Alcotest.(check bool) "competitive with converged feedback" true
    (tuned.Experiments.peak_k < last_feedback.Experiments.peak_k +. 1.0)

let test_e15_cycling_fatigue () =
  let rows = Experiments.e15 ~quiet:true () in
  let find p =
    List.find (fun (r : Experiments.e15_row) -> r.Experiments.policy = p) rows
  in
  let ff = find "first-fit" and ts = find "thermal-spread" in
  Alcotest.(check bool) "spread swings smaller" true
    (ts.Experiments.max_swing_k < ff.Experiments.max_swing_k);
  Alcotest.(check bool) "spread damage much lower" true
    (ts.Experiments.damage_index < ff.Experiments.damage_index /. 5.0);
  Alcotest.(check bool) "spread transient peak lower" true
    (ts.Experiments.transient_peak_k < ff.Experiments.transient_peak_k)

let test_e16_rf_size_sweep () =
  let rows = Experiments.e16 ~quiet:true () in
  let find rf policy =
    List.find
      (fun (r : Experiments.e16_row) ->
        r.Experiments.rf = rf && r.Experiments.policy = policy)
      rows
  in
  (* The 16-register file cannot hold horner's pressure: spilling and a
     cycle penalty. *)
  let tiny = find "4x4" "first-fit" in
  let big = find "8x8" "first-fit" in
  Alcotest.(check bool) "tiny RF spills" true (tiny.Experiments.spilled > 0);
  Alcotest.(check bool) "big RF does not" true (big.Experiments.spilled = 0);
  Alcotest.(check bool) "spilling costs cycles" true
    (tiny.Experiments.cycles > big.Experiments.cycles);
  (* More cells give the thermal policy more headroom. *)
  let ts32 = find "4x8" "thermal-spread" in
  let ts128 = find "8x16" "thermal-spread" in
  Alcotest.(check bool) "headroom helps" true
    (ts128.Experiments.peak_k < ts32.Experiments.peak_k);
  (* Thermal-spread beats first-fit at every size without spilling. *)
  List.iter
    (fun rf ->
      Alcotest.(check bool)
        (rf ^ ": spread cooler")
        true
        ((find rf "thermal-spread").Experiments.peak_k
         < (find rf "first-fit").Experiments.peak_k))
    [ "4x8"; "8x8"; "8x16" ]

let test_e17_reassignment_recovers_benefit () =
  let rows = Experiments.e17 ~quiet:true () in
  let kernels =
    List.sort_uniq String.compare
      (List.map (fun (r : Experiments.e17_row) -> r.Experiments.kernel) rows)
  in
  List.iter
    (fun k ->
      let find variant =
        List.find
          (fun (r : Experiments.e17_row) ->
            r.Experiments.kernel = k && r.Experiments.variant = variant)
          rows
      in
      let ff = find "first-fit" in
      let re = find "re-assigned (ref [3])" in
      let ts = find "thermal-spread" in
      Alcotest.(check bool) (k ^ ": re-assignment cools") true
        (re.Experiments.peak_k < ff.Experiments.peak_k);
      (* Within 1 K of the from-scratch thermal policy. *)
      Alcotest.(check bool) (k ^ ": recovers most of the benefit") true
        (re.Experiments.peak_k < ts.Experiments.peak_k +. 1.0))
    kernels

let test_e18_batch_engine_shape () =
  let scaling, cache =
    Experiments.e18 ~quiet:true ~jobs_sweep:[ 1; 2 ] ~repeat_sweep:[ 1; 2 ] ()
  in
  let suite_size = List.length Tdfa_workload.Kernels.all in
  Alcotest.(check (list int)) "jobs sweep" [ 1; 2 ]
    (List.map (fun (r : Experiments.e18_scaling_row) -> r.Experiments.jobs)
       scaling);
  List.iter
    (fun (r : Experiments.e18_scaling_row) ->
      Alcotest.(check bool) "positive wall time" true (r.Experiments.wall_ms > 0.0);
      Alcotest.(check bool) "positive speedup" true (r.Experiments.speedup > 0.0))
    scaling;
  (* Cache hits are exact: everything after the first pass over the suite. *)
  List.iter
    (fun (r : Experiments.e18_cache_row) ->
      Alcotest.(check int)
        (Printf.sprintf "repeat=%d misses" r.Experiments.repeat)
        suite_size r.Experiments.cache_misses;
      Alcotest.(check int)
        (Printf.sprintf "repeat=%d hits" r.Experiments.repeat)
        ((r.Experiments.repeat - 1) * suite_size)
        r.Experiments.cache_hits)
    cache

let test_e19_predictor_shape () =
  let r = Experiments.e19 ~quiet:true ~n:20 () in
  Alcotest.(check int) "corpus size recorded" 20 r.Experiments.corpus;
  (* One row per thermal rule plus the combined any-thermal-rule row. *)
  Alcotest.(check int)
    "row per thermal rule plus combined"
    (List.length Tdfa_lint.Rules.thermal_ids + 1)
    (List.length r.Experiments.rows);
  List.iter
    (fun (row : Experiments.e19_row) ->
      Alcotest.(check int)
        (row.Experiments.rule ^ " confusion sums to corpus and hot")
        r.Experiments.hot
        (row.Experiments.tp + row.Experiments.fn);
      Alcotest.(check int)
        (row.Experiments.rule ^ " flagged = tp + fp")
        row.Experiments.flagged
        (row.Experiments.tp + row.Experiments.fp);
      Alcotest.(check bool)
        (row.Experiments.rule ^ " precision in range")
        true
        (row.Experiments.precision >= 0.0 && row.Experiments.precision <= 1.0);
      Alcotest.(check bool)
        (row.Experiments.rule ^ " recall in range")
        true
        (row.Experiments.recall >= 0.0 && row.Experiments.recall <= 1.0))
    r.Experiments.rows

let test_e20_incremental_shape () =
  (* A tiny corpus keeps this in test budget; the fingerprint equality
     between reuse and cold is asserted inside e20 itself on every event,
     so reaching the return value at all means no divergence. *)
  let r = Experiments.e20 ~quiet:true ~n:2 ~repeats:1 ~json:None () in
  Alcotest.(check int) "corpus size recorded" 2 r.Experiments.corpus_functions;
  (* 8 example kernels x 7 single-pass edits. *)
  Alcotest.(check int) "kernel event count" 56
    (List.length r.Experiments.kernel_events);
  Alcotest.(check bool) "corpus events present" true
    (r.Experiments.corpus_events <> []);
  Alcotest.(check bool) "kernel median positive" true
    (r.Experiments.kernel_median > 0.0);
  Alcotest.(check bool) "corpus median positive" true
    (r.Experiments.corpus_median > 0.0);
  Alcotest.(check bool) "class breakdown present" true
    (r.Experiments.e20_classes <> []);
  List.iter
    (fun (e : Experiments.e20_event) ->
      Alcotest.(check bool)
        (e.Experiments.subject ^ "/" ^ e.Experiments.edit ^ " timings positive")
        true
        (e.Experiments.t_cold_ms > 0.0 && e.Experiments.t_warm_ms > 0.0
        && e.Experiments.e20_speedup > 0.0))
    (r.Experiments.kernel_events @ r.Experiments.corpus_events)

let test_e22_trace_shape () =
  (* A small stream keeps this in test budget; the Trace-vs-Configured
     fingerprint equality at s = 0 is asserted inside e22 itself, so
     reaching the return value at all means the two paths agree. *)
  let r = Experiments.e22 ~quiet:true ~n:600 ~json:None () in
  Alcotest.(check int) "one row per exponent" 4
    (List.length r.Experiments.e22_rows);
  Alcotest.(check bool) "uniform stream matches hand-built IR" true
    r.Experiments.e22_uniform_matches_ir;
  Alcotest.(check bool) "chessboard reference positive" true
    (r.Experiments.e22_chessboard_peak_k > 0.0);
  List.iter
    (fun (row : Experiments.e22_row) ->
      let tag = Printf.sprintf "s=%g" row.Experiments.e22_s in
      Alcotest.(check int) (tag ^ " samples") 600 row.Experiments.e22_samples;
      Alcotest.(check bool) (tag ^ " windows positive") true
        (row.Experiments.e22_windows > 0);
      Alcotest.(check bool) (tag ^ " cells touched on an 8x8 file") true
        (row.Experiments.e22_cells_touched > 0
        && row.Experiments.e22_cells_touched <= 64);
      Alcotest.(check bool) (tag ^ " peak above ambient") true
        (row.Experiments.e22_peak_k > 300.0);
      Alcotest.(check bool) (tag ^ " ratio consistent") true
        (abs_float
           (row.Experiments.e22_vs_chessboard
           -. (row.Experiments.e22_peak_k /. r.Experiments.e22_chessboard_peak_k))
        < 1e-9);
      Alcotest.(check bool) (tag ^ " persistence in [0,1]") true
        (row.Experiments.e22_persistence >= 0.0
        && row.Experiments.e22_persistence <= 1.0);
      Alcotest.(check bool) (tag ^ " distinct hot cells sane") true
        (row.Experiments.e22_distinct_hot >= 1
        && row.Experiments.e22_distinct_hot <= 64))
    r.Experiments.e22_rows;
  (* Skew concentrates heat: the s = 1.5 stream must run at least as
     hot as the uniform one. *)
  let peak s =
    (List.find
       (fun (row : Experiments.e22_row) -> row.Experiments.e22_s = s)
       r.Experiments.e22_rows)
      .Experiments.e22_peak_k
  in
  Alcotest.(check bool) "skew heats" true (peak 1.5 >= peak 0.0)

(* Every BENCH_*.json record the CI gates read with jq: written through
   the one codec, it parses back and carries each gated key with the
   JSON type the gate compares. Small runs; the writers do not depend on
   the run size. *)
let test_bench_json_keys () =
  let module Json = Tdfa_obs.Json in
  let read_back run =
    let path = Filename.temp_file "tdfa-bench" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        ignore (run (Some path));
        match
          Json.of_string (In_channel.with_open_text path In_channel.input_all)
        with
        | Ok j -> j
        | Error msg -> Alcotest.failf "BENCH json does not parse: %s" msg)
  in
  let field j k =
    match Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "missing key %s in %s" k (Json.to_string j)
  in
  let bool_ j k =
    match field j k with
    | Json.Bool b -> b
    | v -> Alcotest.failf "%s is not a boolean: %s" k (Json.to_string v)
  in
  let number j k =
    match Json.to_float (field j k) with
    | Some f -> f
    | None -> Alcotest.failf "%s is not a number" k
  in
  let list_ j k =
    match field j k with
    | Json.List l -> l
    | v -> Alcotest.failf "%s is not an array: %s" k (Json.to_string v)
  in
  let e20 =
    read_back (fun json -> Experiments.e20 ~quiet:true ~n:2 ~repeats:1 ~json ())
  in
  Alcotest.(check bool) "e20 fingerprints_equal" true
    (bool_ e20 "fingerprints_equal");
  Alcotest.(check bool) "e20 medians positive" true
    (number e20 "kernel_median_speedup" > 0.0
    && number e20 "corpus_median_speedup" > 0.0);
  Alcotest.(check bool) "e20 events and classes" true
    (list_ e20 "kernel_events" <> [] && list_ e20 "classes" <> []);
  let e21 =
    read_back (fun json ->
        Experiments.e21 ~quiet:true ~quick:true ~repeats:1 ~json ())
  in
  Alcotest.(check bool) "e21 fingerprints_equal" true
    (bool_ e21 "fingerprints_equal");
  List.iter
    (fun k -> ignore (number e21 k))
    [ "fixpoint_median_speedup"; "steady_median_speedup" ];
  Alcotest.(check bool) "e21 pairs bit-identical" true
    (List.for_all
       (fun p -> bool_ p "bit_identical")
       (list_ e21 "fixpoint_pairs" @ list_ e21 "steady_pairs")
    && list_ e21 "steady_pairs" <> []);
  let e22 = read_back (fun json -> Experiments.e22 ~quiet:true ~n:600 ~json ()) in
  Alcotest.(check bool) "e22 uniform_matches_ir" true
    (bool_ e22 "uniform_matches_ir");
  Alcotest.(check bool) "e22 chessboard peak" true
    (number e22 "chessboard_peak_k" > 0.0);
  let rows = list_ e22 "rows" in
  List.iter (fun r -> ignore (number r "peak_k")) rows;
  Alcotest.(check int) "e22 rows" 4 (List.length rows);
  let e23 =
    read_back (fun json -> Experiments.e23 ~quiet:true ~n:4 ~repeats:1 ~json ())
  in
  Alcotest.(check bool) "e23 containment" true (bool_ e23 "containment");
  List.iter
    (fun k -> ignore (number e23 k))
    [ "certified_hot_precision"; "possibly_hot_recall"; "decided_ratio";
      "same_grid_cost_ratio"; "host_cores" ];
  Alcotest.(check int) "e23 kernels" 16 (List.length (list_ e23 "kernels"));
  let e24 =
    read_back (fun json ->
        Experiments.e24 ~quiet:true ~n:12 ~sa_iters:300 ~json ())
  in
  Alcotest.(check bool) "e24 all_policies_beat_round_robin" true
    (bool_ e24 "all_policies_beat_round_robin");
  let policies = list_ e24 "policies" in
  Alcotest.(check int) "e24 policies" 4 (List.length policies);
  List.iter
    (fun p ->
      ignore (field p "policy");
      ignore (number p "improvement_k"))
    policies

let suite =
  let tc = Alcotest.test_case in
  [
    ( "experiments",
      [
        tc "FIG1 policy ordering" `Slow test_fig1_policy_ordering;
        tc "FIG2 convergence shape" `Slow test_fig2_convergence_shape;
        tc "E3 chessboard breakdown" `Slow test_e3_chessboard_breakdown;
        tc "E4 thermal policies win" `Slow test_e4_thermal_policies_win;
        tc "E5 granularity trade-off" `Slow test_e5_granularity_tradeoff;
        tc "E6 optimizations help" `Slow test_e6_optimizations_help;
        tc "E7 post-RA beats pre-RA" `Slow test_e7_post_ra_beats_pre_ra;
        tc "E9 VLIW binding" `Slow test_e9_fixed_binding_worst;
        tc "E10 bank gating trade-off" `Slow test_e10_gating_tradeoff;
        tc "E11 unroll trade-off" `Slow test_e11_unroll_tradeoff;
        tc "E12 DTM vs compile time" `Slow test_e12_dtm_vs_compile_time;
        tc "E13 interprocedural wins" `Slow test_e13_interprocedural_wins;
        tc "E14 analysis replaces feedback" `Slow test_e14_analysis_replaces_feedback;
        tc "E15 cycling fatigue" `Slow test_e15_cycling_fatigue;
        tc "E16 RF size sweep" `Slow test_e16_rf_size_sweep;
        tc "E17 re-assignment" `Slow test_e17_reassignment_recovers_benefit;
        tc "E18 batch engine" `Slow test_e18_batch_engine_shape;
        tc "E19 lint predictor" `Slow test_e19_predictor_shape;
        tc "E20 incremental warm-start" `Slow test_e20_incremental_shape;
        tc "E22 trace-ingestion skew" `Slow test_e22_trace_shape;
        tc "E20-E24 BENCH json carries the gated keys" `Slow
          test_bench_json_keys;
      ] );
  ]
