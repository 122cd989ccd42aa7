(* Certifying from a kept outcome. A serve session answers [predict]
   (and lint's bound rules) from its resident analysis: the bounds are
   [Absint.certify] of the fixpoint an earlier analyze left in the
   session, not of a fixpoint run again. This battery checks that the
   shortcut changes nothing, bit for bit, against two others — the cold
   [Absint.predict] and the one-workspace reference loop of
   absint_reference.ml, which derives the lift inputs itself — over the
   kernels pre-RA and post-RA at two granularities and three deltas,
   generated functions, diverged outcomes and non-monotone parameters;
   that a prior of another delta, policy or granularity is never reused
   and a corrupted one is never trusted; and, by counting spans, that
   an analyze → predict session runs one fixpoint and one
   allocation. *)

open Tdfa_core
open Tdfa_workload
open Tdfa_serve
module Absint = Tdfa_absint.Absint
module Obs = Tdfa_obs.Obs
module Policy = Tdfa_regalloc.Policy
module Params = Tdfa_thermal.Params

let layout = Tdfa_harness.Common.standard_layout

let bits x = Int64.bits_of_float x
let same_float x y = Int64.equal (bits x) (bits y)

let same_cells a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let same_bounds (a : Absint.t) (b : Absint.t) =
  same_float a.Absint.ambient_k b.Absint.ambient_k
  && same_float a.Absint.margin_k b.Absint.margin_k
  && same_cells a.Absint.lo_cells b.Absint.lo_cells
  && same_cells a.Absint.hi_cells b.Absint.hi_cells
  && same_float a.Absint.peak_lo_k b.Absint.peak_lo_k
  && same_float a.Absint.peak_hi_k b.Absint.peak_hi_k
  && a.Absint.stats.Absint.iterations = b.Absint.stats.Absint.iterations
  && a.Absint.stats.Absint.certify_sweeps
     = b.Absint.stats.Absint.certify_sweeps
  && same_float a.Absint.stats.Absint.lift_alpha
       b.Absint.stats.Absint.lift_alpha

let driver_config ?(params = Params.default) ?analysis_dt_s ~granularity
    ~settings () =
  {
    (Tdfa.Driver.default ~layout) with
    Tdfa.Driver.granularity;
    settings;
    params;
    analysis_dt_s;
  }

(* One configuration, four ways: the reference loop, the cold predict,
   [certify] of an incremental analysis's outcome, and the driver's
   [predict] handed that analysis as a prior. The prior must come out
   of the certificate intact: its state rows are not the workspace the
   certificate sweeps. *)
let four_ways ?params ?analysis_dt_s ~granularity ~settings func assignment =
  let cfg = driver_config ?params ?analysis_dt_s ~granularity ~settings () in
  let tc = Tdfa.Driver.transfer_config cfg func assignment in
  let reference = Absint_reference.predict ~settings tc func in
  let cold =
    Absint.predict ~delta_k:settings.Analysis.delta_k
      ~max_iterations:settings.Analysis.max_iterations tc func
  in
  let inc = Incremental.analyze ~settings tc func in
  let certified = Absint.certify ~settings tc func inc.Incremental.outcome in
  let driven =
    Tdfa.Driver.predict cfg
      (Tdfa.Driver.Warm_start
         { func; assignment; prior = Some inc.Incremental.prior })
  in
  same_bounds reference cold
  && same_bounds cold certified
  && same_bounds cold driven
  && Incremental.prior_intact inc.Incremental.prior

let settings ?(max_iterations = 200) delta_k =
  { Analysis.default_settings with Analysis.delta_k; max_iterations }

(* --- The kernels ------------------------------------------------------------ *)

let test_kernels_four_ways () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun pre_ra ->
          let a = Render.allocation ~policy:Policy.First_fit ~pre_ra f in
          List.iter
            (fun granularity ->
              List.iter
                (fun (delta, max_iterations) ->
                  if
                    not
                      (four_ways ~granularity
                         ~settings:(settings ~max_iterations delta)
                         a.Render.func a.Render.assignment)
                  then
                    Alcotest.failf "%s pre_ra=%b g=%d delta=%g cap=%d" name
                      pre_ra granularity delta max_iterations)
                [ (0.01, 200); (0.05, 200); (0.5, 200); (0.05, 3); (0.01, 1) ])
            [ 1; 2 ])
        [ false; true ])
    Kernels.all

(* The rendered reply: cold, and from the prior a resident analyze left,
   with the allocation it kept. *)
let test_render_predict_from_prior () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (pre_ra, granularity, delta) ->
          let policy = Policy.First_fit in
          let allocation = Render.allocation ~policy ~pre_ra f in
          let _, r =
            Render.analyze ~allocation ~policy ~granularity ~delta ~pre_ra
              ~recover:false ~incremental:true f
          in
          let prior =
            Option.map (fun i -> i.Incremental.prior) r.Tdfa.Driver.incremental
          in
          let cold, _ = Render.predict ~policy ~granularity ~delta ~pre_ra f in
          let warm, _ =
            Render.predict ?prior ~allocation ~policy ~granularity ~delta
              ~pre_ra f
          in
          Alcotest.(check string)
            (Printf.sprintf "%s pre_ra=%b g=%d delta=%g" name pre_ra
               granularity delta)
            cold warm)
        [ (false, 1, 0.05); (true, 2, 0.01); (false, 2, 0.5) ])
    Kernels.all

(* --- Generated functions, diverged runs ------------------------------------ *)

let prop_generated_four_ways =
  QCheck2.Test.make ~name:"certify from an outcome == cold == reference"
    ~count:40
    QCheck2.Gen.(
      quad
        (Generator.gen_func ~max_pool:44 ~max_depth:3 ())
        (oneofl [ 0.01; 0.05; 0.5 ])
        (int_range 1 2)
        (oneofl [ 1; 2; 4; 200 ]))
    (fun (f, delta, granularity, max_iterations) ->
      let a = Render.allocation ~policy:Policy.First_fit ~pre_ra:false f in
      four_ways ~granularity
        ~settings:(settings ~max_iterations delta)
        a.Render.func a.Render.assignment)

(* --- Outside the monotone regime ------------------------------------------- *)

(* An explicit step too long for diffusion to stay a convex combination,
   and a negative leakage slope: nothing is certified, and all four
   ways say so alike. *)
let test_non_monotone_four_ways () =
  let cases =
    [
      (None, Some 5e-3);
      (Some { Params.default with Params.leakage_temp_coeff = -0.05 }, None);
    ]
  in
  List.iter
    (fun (name, f) ->
      let a = Render.allocation ~policy:Policy.First_fit ~pre_ra:false f in
      List.iteri
        (fun i (params, analysis_dt_s) ->
          if
            not
              (four_ways ?params ?analysis_dt_s ~granularity:1
                 ~settings:(settings ~max_iterations:20 0.05)
                 a.Render.func a.Render.assignment)
          then Alcotest.failf "%s: non-monotone case %d" name i)
        cases)
    [ ("fib", Kernels.fib ()); ("fir", Kernels.fir ()); ("crc", Kernels.crc ()) ]

(* --- Which priors are reused ----------------------------------------------- *)

let fixpoints obs =
  List.length
    (List.filter
       (fun (e : Obs.event) ->
         e.Obs.name = "analysis.fixpoint" && e.Obs.phase = Obs.Begin)
       (Obs.events obs))

(* The driver's predict under [cfg] with [prior]: its bounds and the
   number of fixpoints it ran. *)
let predict_with ~cfg ~func ~assignment prior =
  let obs = Obs.memory () in
  let b =
    Tdfa.Driver.predict
      { cfg with Tdfa.Driver.obs }
      (Tdfa.Driver.Warm_start { func; assignment; prior })
  in
  (b, fixpoints obs)

let test_mismatched_prior_runs_cold () =
  let f = Kernels.fir () in
  let alloc policy =
    Render.allocation ~policy ~pre_ra:false f
  in
  let a = alloc Policy.First_fit in
  let base = driver_config ~granularity:1 ~settings:(settings 0.05) () in
  let prior =
    let tc = Tdfa.Driver.transfer_config base a.Render.func a.Render.assignment in
    (Incremental.analyze ~settings:base.Tdfa.Driver.settings tc a.Render.func)
      .Incremental.prior
  in
  let check name cfg (b : Render.allocation) ~reused =
    let cold, n_cold =
      predict_with ~cfg ~func:b.Render.func ~assignment:b.Render.assignment None
    in
    let warm, n_warm =
      predict_with ~cfg ~func:b.Render.func ~assignment:b.Render.assignment
        (Some prior)
    in
    Alcotest.(check bool) (name ^ ": same bounds") true (same_bounds cold warm);
    Alcotest.(check int) (name ^ ": cold fixpoints") 1 n_cold;
    Alcotest.(check int) (name ^ ": fixpoints with the prior")
      (if reused then 0 else 1) n_warm
  in
  check "same key" base a ~reused:true;
  check "other delta"
    { base with Tdfa.Driver.settings = settings 0.01 }
    a ~reused:false;
  check "other iteration cap"
    { base with Tdfa.Driver.settings = settings ~max_iterations:50 0.05 }
    a ~reused:false;
  check "other granularity" { base with Tdfa.Driver.granularity = 2 } a
    ~reused:false;
  check "other policy" base (alloc Policy.Chessboard) ~reused:false;
  check "pre-RA placement" base
    (Render.allocation ~policy:Policy.First_fit ~pre_ra:true f)
    ~reused:false

(* A prior whose states, or whose lift inputs alone, changed after it
   was made fails its integrity digest: predict runs cold, with the
   cold bounds. *)
let test_poisoned_prior_runs_cold () =
  let f = Kernels.dotprod () in
  let a = Render.allocation ~policy:Policy.First_fit ~pre_ra:false f in
  let cfg = driver_config ~granularity:1 ~settings:(settings 0.05) () in
  let tc = Tdfa.Driver.transfer_config cfg a.Render.func a.Render.assignment in
  let fresh () =
    Incremental.analyze ~settings:cfg.Tdfa.Driver.settings tc a.Render.func
  in
  let run prior =
    predict_with ~cfg ~func:a.Render.func ~assignment:a.Render.assignment prior
  in
  let cold, _ = run None in
  let poisoned = Incremental.poison_prior ~seed:7 (fresh ()).Incremental.prior in
  let b, n = run (Some poisoned) in
  Alcotest.(check bool) "poisoned states: cold bounds" true (same_bounds cold b);
  Alcotest.(check int) "poisoned states: one fixpoint" 1 n;
  let inc = fresh () in
  let info = Analysis.info inc.Incremental.outcome in
  let lift = info.Analysis.prev_exits in
  lift.(0) <- lift.(0) +. 0.5;
  Alcotest.(check bool) "bent lift inputs fail the digest" false
    (Incremental.prior_intact inc.Incremental.prior);
  let b, n = run (Some inc.Incremental.prior) in
  Alcotest.(check bool) "bent lift inputs: cold bounds" true (same_bounds cold b);
  Alcotest.(check int) "bent lift inputs: one fixpoint" 1 n

(* --- One fixpoint and one allocation per session --------------------------- *)

let count_spans obs name ~round_one =
  List.length
    (List.filter
       (fun (e : Obs.event) ->
         e.Obs.name = name
         && (match e.Obs.phase with
             | Obs.Begin | Obs.Complete _ -> true
             | _ -> false)
         && ((not round_one) || List.assoc_opt "round" e.Obs.args = Some (Obs.Int 1)))
       (Obs.events obs))

let served_output = function
  | Server.Reply j -> (
    match Json.str_member "output" j with
    | Some out -> out
    | None -> Alcotest.failf "no output: %s" (Json.to_string j))
  | _ -> Alcotest.fail "no reply"

let session_run lines =
  let obs = Obs.memory () in
  let t = Server.create ~config:{ Server.default_config with Server.obs } () in
  let s = Session.create "count" in
  let outs = List.map (fun l -> served_output (Server.handle_line t s l)) lines in
  (outs, obs)

let frame op fields =
  Json.to_string (Json.Obj (("id", Json.Str op) :: ("op", Json.Str op) :: fields))

let test_one_fixpoint_per_session () =
  List.iter
    (fun (name, f) ->
      let outs, obs =
        session_run
          [
            frame "analyze"
              [ ("kernel", Json.Str name); ("incremental", Json.Bool true) ];
            frame "predict" [];
            frame "lint" [ ("post_ra", Json.Bool true) ];
          ]
      in
      Alcotest.(check int) (name ^ ": one fixpoint") 1
        (count_spans obs "analysis.fixpoint" ~round_one:false);
      Alcotest.(check int) (name ^ ": one allocation") 1
        (count_spans obs "regalloc.coloring" ~round_one:true);
      let policy = Policy.First_fit in
      Alcotest.(check string) (name ^ ": predict == one-shot")
        (fst (Render.predict ~policy ~granularity:1 ~delta:0.05 ~pre_ra:false f))
        (List.nth outs 1);
      Alcotest.(check string) (name ^ ": lint --post-ra == one-shot")
        (fst (Render.lint ~post_ra:true ~policy f))
        (List.nth outs 2))
    [ ("fib", Kernels.fib ()); ("matmul", Kernels.matmul ()) ]

(* A predict at another delta misses the key and runs its own fixpoint;
   the allocation is still the session's. *)
let test_other_delta_runs_cold () =
  let outs, obs =
    session_run
      [
        frame "analyze"
          [ ("kernel", Json.Str "fir"); ("incremental", Json.Bool true) ];
        frame "predict" [ ("delta", Json.Float 0.01) ];
      ]
  in
  Alcotest.(check int) "two fixpoints" 2
    (count_spans obs "analysis.fixpoint" ~round_one:false);
  Alcotest.(check int) "one allocation" 1
    (count_spans obs "regalloc.coloring" ~round_one:true);
  Alcotest.(check string) "predict == one-shot"
    (fst
       (Render.predict ~policy:Policy.First_fit ~granularity:1 ~delta:0.01
          ~pre_ra:false (Kernels.fir ())))
    (List.nth outs 1)

let suite =
  [
    ( "absint.resident",
      [
        Alcotest.test_case "kernels: certify == cold == reference" `Quick
          test_kernels_four_ways;
        Alcotest.test_case "render predict from a prior == cold" `Quick
          test_render_predict_from_prior;
        Alcotest.test_case "non-monotone: certify == cold == reference"
          `Quick test_non_monotone_four_ways;
        Alcotest.test_case "mismatched prior runs cold" `Quick
          test_mismatched_prior_runs_cold;
        Alcotest.test_case "poisoned prior runs cold" `Quick
          test_poisoned_prior_runs_cold;
        Alcotest.test_case "analyze -> predict: one fixpoint, one allocation"
          `Quick test_one_fixpoint_per_session;
        Alcotest.test_case "predict at another delta runs cold" `Quick
          test_other_delta_runs_cold;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_generated_four_ways ] );
  ]
