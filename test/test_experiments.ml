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

(* E20–E24 return rows: the value of one (subject, metric) row. *)
let value rows subject metric =
  match
    List.find_opt
      (fun (r : Experiments.row) ->
        r.Experiments.subject = subject && r.Experiments.metric = metric)
      rows
  with
  | Some r -> r.Experiments.value
  | None -> Alcotest.failf "no row %s / %s" subject metric

let with_metric metric rows =
  List.filter (fun (r : Experiments.row) -> r.Experiments.metric = metric) rows

let test_e20_incremental_shape () =
  (* A tiny corpus keeps this in test budget; the fingerprint equality
     between reuse and cold is asserted inside e20 itself on every event,
     so reaching the return value at all means no divergence. *)
  let rows = Experiments.e20 ~quiet:true ~n:2 ~json:None () in
  let v = value rows in
  (* 8 example kernels x 7 single-pass edits. *)
  Alcotest.(check int) "one identity row per kernel event" 56
    (List.length (with_metric "identity" rows));
  Alcotest.(check (float 0.0)) "kernel event count" 56.0 (v "kernels" "events");
  (* 2 generated functions x 3 edits. *)
  Alcotest.(check (float 0.0)) "corpus event count" 6.0 (v "corpus" "events");
  let modes =
    List.filter
      (fun (r : Experiments.row) ->
        String.starts_with ~prefix:"mode " r.Experiments.subject)
      rows
  in
  Alcotest.(check bool) "mode breakdown present" true (modes <> []);
  Alcotest.(check (float 0.0)) "modes partition the events" 62.0
    (List.fold_left (fun acc (r : Experiments.row) -> acc +. r.Experiments.value)
       0.0 modes);
  Alcotest.(check (float 0.0)) "fingerprints equal" 1.0
    (v "all events" "fingerprints_equal")

let test_e22_trace_shape () =
  (* A small stream keeps this in test budget; the Trace-vs-Configured
     fingerprint equality at s = 0 is asserted inside e22 itself, so
     reaching the return value at all means the two paths agree. *)
  let rows = Experiments.e22 ~quiet:true ~n:600 ~json:None () in
  let cb = value rows "chessboard" "peak_k" in
  Alcotest.(check bool) "chessboard reference positive" true (cb > 0.0);
  Alcotest.(check (float 0.0)) "uniform stream matches hand-built IR" 1.0
    (value rows "zipf s=0.0" "matches_ir");
  Alcotest.(check int) "one peak per exponent and the reference" 5
    (List.length (with_metric "peak_k" rows));
  let peak s = value rows (Printf.sprintf "zipf s=%.1f" s) "peak_k" in
  List.iter
    (fun s ->
      let tag = Printf.sprintf "zipf s=%.1f" s in
      let v = value rows tag in
      Alcotest.(check (float 0.0)) (tag ^ " samples") 600.0 (v "samples");
      Alcotest.(check bool) (tag ^ " windows positive") true (v "windows" > 0.0);
      Alcotest.(check bool) (tag ^ " cells touched on an 8x8 file") true
        (v "cells_touched" > 0.0 && v "cells_touched" <= 64.0);
      Alcotest.(check bool) (tag ^ " peak above ambient") true
        (v "peak_k" > 300.0);
      Alcotest.(check bool) (tag ^ " ratio consistent") true
        (abs_float (v "vs_chessboard" -. (v "peak_k" /. cb)) < 1e-9);
      Alcotest.(check bool) (tag ^ " persistence in [0,1]") true
        (v "persistence" >= 0.0 && v "persistence" <= 1.0);
      Alcotest.(check bool) (tag ^ " distinct hot cells sane") true
        (v "distinct_hot" >= 1.0 && v "distinct_hot" <= 64.0))
    [ 0.0; 0.5; 1.0; 1.5 ];
  (* Skew concentrates heat: the s = 1.5 stream must run at least as
     hot as the uniform one. *)
  Alcotest.(check bool) "skew heats" true (peak 1.5 >= peak 0.0)

(* Every BENCH_*.json record, written by the one writer, parses back
   into the one shape — exactly the keys experiment, host_cores and
   rows; every row exactly subject, metric, unit, value and n, with
   non-empty strings, a finite value and n >= 1 — and carries the rows
   the CI gates read. Small runs; the writer does not depend on the run
   size. *)
let test_bench_json_keys () =
  let module Json = Tdfa_obs.Json in
  let keys = function
    | Json.Obj kv -> List.sort compare (List.map fst kv)
    | v -> Alcotest.failf "not an object: %s" (Json.to_string v)
  in
  let read_back name run =
    let path = Filename.temp_file "tdfa-bench" ".json" in
    let j =
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          ignore (run (Some path) : Experiments.row list);
          match
            Json.of_string (In_channel.with_open_text path In_channel.input_all)
          with
          | Ok j -> j
          | Error msg -> Alcotest.failf "%s does not parse: %s" name msg)
    in
    Alcotest.(check (list string)) (name ^ " top-level keys")
      [ "experiment"; "host_cores"; "rows" ] (keys j);
    Alcotest.(check (option string)) (name ^ " experiment") (Some name)
      (Json.str_member "experiment" j);
    Alcotest.(check bool) (name ^ " host_cores") true
      (Option.value ~default:0 (Json.int_member "host_cores" j) >= 1);
    let rows =
      match Json.member "rows" j with
      | Some (Json.List (_ :: _ as l)) -> l
      | _ -> Alcotest.failf "%s: rows is not a non-empty array" name
    in
    List.map
      (fun r ->
        Alcotest.(check (list string)) (name ^ " row keys")
          [ "metric"; "n"; "subject"; "unit"; "value" ] (keys r);
        let str k =
          match Json.str_member k r with
          | Some s when s <> "" -> s
          | _ -> Alcotest.failf "%s: row %s is not a non-empty string" name k
        in
        let subject = str "subject" and metric = str "metric" in
        ignore (str "unit");
        let value =
          match Option.bind (Json.member "value" r) Json.to_float with
          | Some v when Float.is_finite v -> v
          | _ -> Alcotest.failf "%s: %s/%s value not finite" name subject metric
        in
        (match Json.int_member "n" r with
        | Some n when n >= 1 -> ()
        | _ -> Alcotest.failf "%s: %s/%s n below 1" name subject metric);
        (subject, metric, value))
      rows
  in
  let get rows subject metric =
    match
      List.find_opt (fun (s, m, _) -> s = subject && m = metric) rows
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "missing gated row %s / %s" subject metric
  in
  let metric m rows = List.filter (fun (_, m', _) -> m' = m) rows in
  let e20 =
    read_back "e20" (fun json -> Experiments.e20 ~quiet:true ~n:2 ~json ())
  in
  Alcotest.(check (float 0.0)) "e20 fingerprints_equal" 1.0
    (get e20 "all events" "fingerprints_equal");
  Alcotest.(check bool) "e20 events and modes" true
    (get e20 "kernels" "events" > 0.0
    && List.exists
         (fun (s, _, _) -> String.starts_with ~prefix:"mode " s)
         (metric "events" e20));
  let e21 =
    read_back "e21" (fun json ->
        Experiments.e21 ~quiet:true ~quick:true ~repeats:1 ~json ())
  in
  ignore (get e21 "fixpoint" "median_speedup");
  ignore (get e21 "steady" "median_speedup");
  Alcotest.(check bool) "e21 pairs bit-identical" true
    (List.for_all (fun (_, _, v) -> v = 1.0) (metric "bit_identical" e21)
    && List.exists
         (fun (s, _, _) -> String.starts_with ~prefix:"steady " s)
         (metric "bit_identical" e21));
  let e22 =
    read_back "e22" (fun json -> Experiments.e22 ~quiet:true ~n:600 ~json ())
  in
  Alcotest.(check (float 0.0)) "e22 matches_ir" 1.0
    (get e22 "zipf s=0.0" "matches_ir");
  Alcotest.(check bool) "e22 chessboard peak" true
    (get e22 "chessboard" "peak_k" > 0.0);
  Alcotest.(check int) "e22 streams" 4
    (List.length
       (List.filter
          (fun (s, _, _) -> String.starts_with ~prefix:"zipf " s)
          (metric "peak_k" e22)));
  let e23 =
    read_back "e23" (fun json ->
        Experiments.e23 ~quiet:true ~n:4 ~repeats:1 ~json ())
  in
  Alcotest.(check (float 0.0)) "e23 containment" 1.0 (get e23 "all" "containment");
  List.iter
    (fun m -> ignore (get e23 "all" m))
    [ "certified_hot_precision"; "possibly_hot_recall"; "decided_ratio";
      "cost_ratio" ];
  Alcotest.(check int) "e23 kernels" 16 (List.length (metric "hi_k" e23));
  let e24 =
    read_back "e24" (fun json ->
        Experiments.e24 ~quiet:true ~n:12 ~sa_iters:300 ~json ())
  in
  Alcotest.(check (float 0.0)) "e24 beat_round_robin" 1.0
    (get e24 "aware policies" "beat_round_robin");
  Alcotest.(check int) "e24 policies" 4 (List.length (metric "peak_k" e24));
  ignore (get e24 "round-robin" "improvement_k")

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
