(* The observability layer's own contract: the Null sink is inert, spans
   nest with correct parent links, the file backends emit well-formed
   JSON, the metrics registry renders deterministically, and the
   fixpoint telemetry agrees with the analysis it narrates. *)

open Tdfa_workload
open Tdfa_core
open Tdfa_obs

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

let fast_settings =
  {
    Analysis.default_settings with
    Analysis.delta_k = 0.1;
    max_iterations = 100;
  }

let driver_cfg obs =
  {
    (Tdfa.Driver.default ~layout) with
    Tdfa.Driver.granularity = 2;
    settings = fast_settings;
    obs;
  }

let run_fib obs =
  Tdfa.Driver.run (driver_cfg obs) (Tdfa.Driver.Unallocated (Kernels.fib ()))

(* Minimal JSON validator — enough of RFC 8259 for what the sinks emit,
   so the well-formedness tests carry no external dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c ->
      advance ();
      true
    | _ -> false
  in
  let literal lit =
    let m = String.length lit in
    if !pos + m <= n && String.sub s !pos m = lit then begin
      pos := !pos + m;
      true
    end
    else false
  in
  let digits () =
    let rec go () =
      match peek () with
      | Some '0' .. '9' ->
        advance ();
        go ()
      | _ -> ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    !pos > start
  in
  let rec string_body () =
    match peek () with
    | None -> false
    | Some '"' ->
      advance ();
      true
    | Some '\\' ->
      advance ();
      (match peek () with
       | None -> false
       | Some _ ->
         advance ();
         string_body ())
    | Some _ ->
      advance ();
      string_body ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        true
      end
      else members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        true
      end
      else elements ()
    | Some '"' ->
      advance ();
      string_body ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> false
  and members () =
    skip_ws ();
    if not (expect '"') then false
    else if not (string_body ()) then false
    else begin
      skip_ws ();
      if not (expect ':') then false
      else if not (value ()) then false
      else begin
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' ->
          advance ();
          true
        | _ -> false
      end
    end
  and elements () =
    if not (value ()) then false
    else begin
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        elements ()
      | Some ']' ->
        advance ();
        true
      | _ -> false
    end
  in
  let ok = value () in
  skip_ws ();
  ok && !pos = n

let count_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

let temp_path suffix =
  Filename.temp_file "tdfa_obs_test" suffix

(* --- Sinks ---------------------------------------------------------------- *)

let test_null_sink_inert () =
  Alcotest.(check bool) "not tracing" false (Obs.tracing Obs.null);
  Alcotest.(check bool) "not metering" false (Obs.metering Obs.null);
  Alcotest.(check int) "span is identity" 42
    (Obs.span Obs.null "x" (fun () -> 42));
  Obs.incr Obs.null "c";
  Obs.gauge Obs.null "g" 1.0;
  Obs.observe Obs.null "h" 1.0;
  Obs.instant Obs.null "i";
  Alcotest.(check int) "no events" 0 (List.length (Obs.events Obs.null));
  Alcotest.(check int) "no metrics" 0 (List.length (Obs.metrics_rows Obs.null));
  Obs.close Obs.null;
  Obs.close Obs.null

(* Instrumented hot paths call these on every request; with the null
   sink they must not allocate a word. *)
let const_unit () = ()

let test_null_sink_allocation_free () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    if Obs.tracing Obs.null then Obs.instant Obs.null "never";
    Obs.span Obs.null "x" const_unit;
    Obs.instant Obs.null "i";
    Obs.incr Obs.null "c";
    Obs.observe Obs.null "h" 1.0
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "null sink allocates nothing" 0.0
    (after -. before -. overhead)

let test_span_nesting () =
  let t = Obs.memory () in
  let r =
    Obs.span t "outer" (fun () ->
        Obs.span t "inner" (fun () ->
            Obs.instant t "tick";
            7))
  in
  Alcotest.(check int) "value through nested spans" 7 r;
  let events = Obs.events t in
  let find name phase =
    List.find (fun e -> e.Obs.name = name && e.Obs.phase = phase) events
  in
  let outer_b = find "outer" Obs.Begin in
  let inner_b = find "inner" Obs.Begin in
  let tick = find "tick" Obs.Instant in
  Alcotest.(check int) "outer is top-level" 0 outer_b.Obs.parent;
  Alcotest.(check int) "inner nests in outer" outer_b.Obs.id
    inner_b.Obs.parent;
  Alcotest.(check int) "instant nests in inner" inner_b.Obs.id
    tick.Obs.parent;
  (* Every Begin has its End, with the same span id. *)
  List.iter
    (fun name ->
      let b = find name Obs.Begin and e = find name Obs.End in
      Alcotest.(check int) (name ^ " end id") b.Obs.id e.Obs.id;
      Alcotest.(check bool)
        (name ^ " times ordered")
        true
        (e.Obs.ts_us >= b.Obs.ts_us))
    [ "outer"; "inner" ]

let test_span_end_on_raise () =
  let t = Obs.memory () in
  (try
     Obs.span t "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  let events = Obs.events t in
  Alcotest.(check bool) "End emitted despite raise" true
    (List.exists
       (fun e -> e.Obs.name = "boom" && e.Obs.phase = Obs.End)
       events)

let test_complete_event () =
  let t = Obs.memory () in
  Obs.complete t ~name:"wait" ~ts_us:10.0 ~dur_us:25.0 ();
  match Obs.events t with
  | [ e ] ->
    Alcotest.(check string) "name" "wait" e.Obs.name;
    (match e.Obs.phase with
     | Obs.Complete d -> Alcotest.(check (float 1e-9)) "duration" 25.0 d
     | _ -> Alcotest.fail "not a Complete event");
    Alcotest.(check (float 1e-9)) "explicit timestamp" 10.0 e.Obs.ts_us
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

(* --- Metrics -------------------------------------------------------------- *)

let test_metrics_registry () =
  let t = Obs.metrics_only () in
  Alcotest.(check bool) "metering" true (Obs.metering t);
  Alcotest.(check bool) "not tracing" false (Obs.tracing t);
  Obs.incr t "b.count";
  Obs.incr t ~by:2 "b.count";
  Obs.gauge t "a.gauge" 4.5;
  Obs.observe t "c.hist" 1.0;
  Obs.observe t "c.hist" 3.0;
  let rows = Obs.metrics_rows t in
  Alcotest.(check (list string)) "sorted by name"
    [ "a.gauge"; "b.count"; "c.hist" ]
    (List.map fst rows);
  Alcotest.(check string) "counter total" "3" (List.assoc "b.count" rows);
  Alcotest.(check string) "gauge value" "4.5" (List.assoc "a.gauge" rows);
  Alcotest.(check string) "histogram rendering"
    "count 2  min 1.000  mean 2.000  max 3.000"
    (List.assoc "c.hist" rows)

(* --- File backends -------------------------------------------------------- *)

let test_chrome_trace_wellformed () =
  let path = temp_path ".json" in
  let t = Obs.chrome_trace ~path in
  let r = run_fib t in
  Obs.close t;
  let body = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "run converged" true
    (Analysis.converged r.outcome);
  Alcotest.(check bool) "valid JSON" true (json_valid body);
  Alcotest.(check char) "array document" '[' body.[0];
  Alcotest.(check int) "every B has an E"
    (count_substring body "\"ph\":\"B\"")
    (count_substring body "\"ph\":\"E\"");
  Alcotest.(check bool) "driver span present" true
    (count_substring body "\"name\":\"driver.run\"" > 0);
  Alcotest.(check bool) "regalloc span present" true
    (count_substring body "\"name\":\"regalloc.coloring\"" > 0)

let test_json_lines_wellformed () =
  let path = temp_path ".jsonl" in
  let t = Obs.json_file ~path in
  ignore (run_fib t);
  Obs.close t;
  let lines =
    In_channel.with_open_text path In_channel.input_lines
  in
  Sys.remove path;
  Alcotest.(check bool) "non-empty" true (List.length lines > 0);
  List.iter
    (fun line ->
      if not (json_valid line) then
        Alcotest.failf "invalid JSON line: %s" line)
    lines

(* --- Fixpoint telemetry --------------------------------------------------- *)

let test_fixpoint_iteration_count () =
  let t = Obs.memory () in
  let r = run_fib t in
  let info = Analysis.info r.outcome in
  let events = Obs.events t in
  let iterations =
    List.length
      (List.filter (fun e -> e.Obs.name = "analysis.iteration") events)
  in
  Alcotest.(check int) "one iteration event per sweep"
    info.Analysis.iterations iterations;
  let verdict =
    List.find (fun e -> e.Obs.name = "analysis.verdict") events
  in
  Alcotest.(check bool) "verdict matches outcome" true
    (List.assoc "converged" verdict.Obs.args
     = Obs.Bool (Analysis.converged r.outcome));
  Alcotest.(check bool) "iterations histogram recorded" true
    (List.mem_assoc "analysis.iterations" (Obs.metrics_rows t));
  Alcotest.(check string) "one analysis run" "1"
    (List.assoc "analysis.runs" (Obs.metrics_rows t))

let test_recovery_rung_events () =
  let t = Obs.memory () in
  let cfg = { (driver_cfg t) with Tdfa.Driver.recover = true } in
  let r = Tdfa.Driver.run cfg (Tdfa.Driver.Unallocated (Kernels.fib ())) in
  (match r.recovery with
   | Some rec_ ->
     let rungs =
       List.length
         (List.filter
            (fun e -> e.Obs.name = "analysis.recovery.rung")
            (Obs.events t))
     in
     Alcotest.(check int) "one rung event per attempt"
       (List.length rec_.Analysis.attempts)
       rungs
   | None -> Alcotest.fail "recover = true must produce a recovery log")

(* Driver.predict's span shape: one driver.predict span holding exactly
   one analysis.fixpoint span and one absint.certify instant, both its
   direct children. *)
let test_predict_span_shape () =
  let t = Obs.memory () in
  ignore
    (Tdfa.Driver.predict (driver_cfg t)
       (Tdfa.Driver.Unallocated (Kernels.fib ())));
  let events = Obs.events t in
  let named name phase =
    List.filter (fun e -> e.Obs.name = name && e.Obs.phase = phase) events
  in
  match
    ( named "driver.predict" Obs.Begin,
      named "analysis.fixpoint" Obs.Begin,
      named "absint.certify" Obs.Instant )
  with
  | [ predict ], [ fixpoint ], [ certify ] ->
    Alcotest.(check int) "driver.predict is top-level" 0 predict.Obs.parent;
    Alcotest.(check int) "fixpoint nests in driver.predict" predict.Obs.id
      fixpoint.Obs.parent;
    Alcotest.(check int) "certify nests in driver.predict" predict.Obs.id
      certify.Obs.parent;
    Alcotest.(check bool) "a certificate was found" true
      (List.assoc "found" certify.Obs.args = Obs.Bool true)
  | p, f, c ->
    Alcotest.failf "expected 1/1/1 predict/fixpoint/certify, got %d/%d/%d"
      (List.length p) (List.length f) (List.length c)

let named events name phase =
  List.filter (fun e -> e.Obs.name = name && e.Obs.phase = phase) events

let int_arg e key =
  match List.assoc_opt key e.Obs.args with
  | Some (Obs.Int i) -> i
  | _ -> Alcotest.failf "%s: no int arg %s" e.Obs.name key

(* A place request: one driver.place span holding one alloc.place span
   (cores, tasks, policy), and annealing's alloc.anneal instant inside
   that. *)
let test_place_span_shape () =
  let t = Obs.memory () in
  let _, placed =
    Tdfa_serve.Render.place ~obs:t ~policy:Tdfa_regalloc.Policy.First_fit
      ~granularity:1 ~delta:0.05 ~geometry:(1, 2)
      ~place_policy:(Tdfa_alloc.Place.Annealed { seed = 3; iters = 50 })
      [ Kernels.fib (); Kernels.fir () ]
  in
  let events = Obs.events t in
  match
    ( named events "driver.place" Obs.Begin,
      named events "alloc.place" Obs.Begin,
      named events "alloc.anneal" Obs.Instant )
  with
  | [ driver ], [ place ], [ anneal ] ->
    Alcotest.(check int) "alloc.place nests in driver.place" driver.Obs.id
      place.Obs.parent;
    Alcotest.(check int) "cores" 2 (int_arg place "cores");
    Alcotest.(check int) "tasks" 2 (int_arg place "tasks");
    Alcotest.(check bool) "policy named" true
      (List.assoc "policy" place.Obs.args
       = Obs.Str
           (Tdfa_alloc.Place.policy_name
              placed.placement.Tdfa_alloc.Place.policy));
    Alcotest.(check int) "anneal nests in alloc.place" place.Obs.id
      anneal.Obs.parent;
    let accepted = int_arg anneal "accepted" in
    Alcotest.(check bool) "0 <= improving <= accepted <= iters" true
      (0 <= int_arg anneal "improving"
      && int_arg anneal "improving" <= accepted
      && accepted <= 50);
    Alcotest.(check bool) "final temperature reported" true
      (match List.assoc_opt "final_temp_k" anneal.Obs.args with
       | Some (Obs.Float k) -> k > 0.0 && k < 2.0
       | _ -> false)
  | d, p, a ->
    Alcotest.failf "expected 1/1/1 driver.place/alloc.place/anneal, got %d/%d/%d"
      (List.length d) (List.length p) (List.length a)

(* The scorer re-derives only the cores a move touched: a move changes
   at most two cores, so 200 moves on 16 cores re-derive far fewer than
   the 16 per score a full rescore would. One alloc.anneal instant per
   run carries the total. *)
let test_anneal_rederives_touched_cores () =
  let t = Obs.memory () in
  let chip = Tdfa_alloc.Chip.make ~rows:4 ~cols:4 () in
  let tasks =
    List.init 5 (fun i ->
        Tdfa_alloc.Task.of_scalars ~core:(Tdfa_alloc.Chip.core chip)
          ~name:(Printf.sprintf "t%d" i) ~peak_k:(340.0 +. float_of_int i)
          ~mean_k:(330.0 +. float_of_int i) ())
  in
  ignore
    (Tdfa_alloc.Place.run ~obs:t chip
       (Tdfa_alloc.Place.Annealed { seed = 1; iters = 200 })
       tasks);
  match named (Obs.events t) "alloc.anneal" Obs.Instant with
  | [ anneal ] ->
    let n = int_arg anneal "cores_rederived" in
    Alcotest.(check bool)
      (Printf.sprintf "0 < %d re-derived cores < 16 x 200 / 4" n)
      true
      (n > 0 && n < 16 * 200 / 4)
  | l -> Alcotest.failf "expected one alloc.anneal instant, got %d" (List.length l)

(* Frame decoding is a span of its own: one serve.frame per request line,
   nested in serve.request, carrying the frame's byte length. *)
let test_serve_frame_span () =
  let t = Obs.memory () in
  let server =
    Tdfa_serve.Server.create
      ~config:{ Tdfa_serve.Server.default_config with obs = t }
      ()
  in
  let session = Tdfa_serve.Session.create "s" in
  let line = {|{"id":"1","op":"analyze","kernel":"fib"}|} in
  ignore (Tdfa_serve.Server.handle_line server session line);
  ignore (Tdfa_serve.Server.handle_line server session "not json");
  let events = Obs.events t in
  match (named events "serve.request" Obs.Begin, named events "serve.frame" Obs.Begin) with
  | [ r1; r2 ], [ f1; f2 ] ->
    Alcotest.(check int) "nested in its request" r1.Obs.id f1.Obs.parent;
    Alcotest.(check int) "nested in the bad request" r2.Obs.id f2.Obs.parent;
    Alcotest.(check int) "bytes" (String.length line) (int_arg f1 "bytes");
    Alcotest.(check int) "bytes of the bad frame" 8 (int_arg f2 "bytes")
  | r, f ->
    Alcotest.failf "expected 2/2 serve.request/serve.frame, got %d/%d"
      (List.length r) (List.length f)

(* A trace request: exactly one thermal.steady span, outside the
   fixpoint, carrying the cell count and both passes' sweep counts. *)
let test_trace_span_shape () =
  let t = Obs.memory () in
  let sample = Tdfa_trace.Synth.zipf ~seed:5 ~s:1.0 ~addrs:16 ~n:300 () in
  ignore
    (Tdfa_serve.Render.trace ~obs:t ~policy:Tdfa_trace.Mapping.Direct
       ~cells:16 ~granularity:1 ~delta:0.05 ~recover:false sample);
  let steady =
    List.filter
      (fun e ->
        e.Obs.name = "thermal.steady"
        && match e.Obs.phase with Obs.Complete _ -> true | _ -> false)
      (Obs.events t)
  in
  match steady with
  | [ steady ] ->
    Alcotest.(check int) "top-level" 0 steady.Obs.parent;
    Alcotest.(check int) "cells" 16 (int_arg steady "cells");
    Alcotest.(check bool) "both passes swept" true
      (int_arg steady "sweeps_first" > 0 && int_arg steady "sweeps_second" > 0)
  | l ->
    Alcotest.failf "expected one thermal.steady span, got %d" (List.length l)

(* A compiled trace is one acyclic block, so the fixpoint's second sweep
   only confirms the first: the flat core skips every one of its
   windows, reports that once as analysis.instr_skipped, and still
   counts two iterations. The parse and the workspace build are spans
   of their own. *)
let test_trace_skip_counter () =
  let t = Obs.memory () in
  let text =
    Tdfa_trace.Sample.print
      (Tdfa_trace.Synth.zipf ~seed:4 ~s:1.0 ~addrs:32 ~n:500 ())
  in
  let sample = Result.get_ok (Tdfa_trace.Sample.parse ~obs:t text) in
  let compiled =
    Tdfa_trace.Compile.compile ~window_us:50 ~policy:Tdfa_trace.Mapping.Direct
      ~cells:64 sample
  in
  let windows = (Tdfa_trace.Compile.stats compiled).Tdfa_trace.Compile.windows in
  let r =
    Tdfa.Driver.run (driver_cfg t) (Tdfa_trace.Compile.driver_input compiled)
  in
  let info = Analysis.info r.outcome in
  Alcotest.(check bool) "several windows" true (windows > 10);
  Alcotest.(check int) "two sweeps" 2 info.Analysis.iterations;
  Alcotest.(check (option string)) "the whole second sweep is skipped"
    (Some (string_of_int windows))
    (List.assoc_opt "analysis.instr_skipped" (Obs.metrics_rows t));
  let events = Obs.events t in
  Alcotest.(check int) "one counter event per fixpoint" 1
    (List.length (named events "analysis.instr_skipped" Obs.Counter));
  Alcotest.(check int) "one trace.parse span" 1
    (List.length (named events "trace.parse" Obs.Begin));
  match
    (named events "analysis.prepare" Obs.Begin,
     named events "driver.run" Obs.Begin)
  with
  | [ prepare ], [ run ] ->
    Alcotest.(check int) "prepare nests in driver.run" run.Obs.id
      prepare.Obs.parent
  | p, d ->
    Alcotest.failf "expected 1/1 analysis.prepare/driver.run, got %d/%d"
      (List.length p) (List.length d)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "obs",
      [
        tc "null sink is inert" `Quick test_null_sink_inert;
        tc "null sink allocates nothing" `Quick test_null_sink_allocation_free;
        tc "annealing re-derives only touched cores" `Quick
          test_anneal_rederives_touched_cores;
        tc "serve.frame span per request line" `Quick test_serve_frame_span;
        tc "span nesting and parent links" `Quick test_span_nesting;
        tc "span End survives a raise" `Quick test_span_end_on_raise;
        tc "complete (retroactive) events" `Quick test_complete_event;
        tc "metrics registry renders sorted" `Quick test_metrics_registry;
        tc "chrome trace is well-formed JSON" `Quick
          test_chrome_trace_wellformed;
        tc "json-lines trace is well-formed" `Quick
          test_json_lines_wellformed;
        tc "fixpoint telemetry counts iterations" `Quick
          test_fixpoint_iteration_count;
        tc "recovery ladder rung events" `Quick test_recovery_rung_events;
        tc "predict span shape" `Quick test_predict_span_shape;
        tc "place span shape" `Quick test_place_span_shape;
        tc "trace span shape" `Quick test_trace_span_shape;
        tc "trace fixpoint skips its confirming sweep" `Quick
          test_trace_skip_counter;
      ] );
  ]
