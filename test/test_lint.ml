(* The lint engine: registry hygiene, configuration algebra, individual
   rules on hand-built functions, deterministic ordering, the SARIF
   renderer and the pipeline gate — plus the QCheck cross-analysis
   property tying natural loops to dominators (the fact the loop-based
   thermal rules rely on). *)

open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_workload
open Tdfa_lint

let layout = Layout.make ~rows:8 ~cols:8 ()
let v = Var.of_string
let l = Label.of_string

let func_of blocks = Func.make ~name:"f" ~params:[] blocks

(* A single straight-line block ending in [ret ret_var]. *)
let straight ?(name = "f") body ret_var =
  Func.make ~name ~params:[]
    [ Block.make (l "entry") body (Block.Return (Some (v ret_var))) ]

let run_rules f =
  Lint.run Rules.all (Lint.make_ctx ~layout f)

let has_rule id findings =
  List.exists (fun (f : Lint.finding) -> f.Lint.rule_id = id) findings

(* --- Registry ------------------------------------------------------------- *)

let test_registry () =
  let ids = List.map (fun (r : Lint.rule) -> r.Lint.id) Rules.all in
  Alcotest.(check int)
    "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " resolvable") true (Rules.find id <> None))
    ids;
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " is registered")
        true (List.mem id ids))
    Rules.thermal_ids;
  Alcotest.(check bool) "unknown id rejected" true (Rules.find "nope" = None)

let test_severity_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Lint.severity_name s ^ " round-trips")
        true
        (Lint.severity_of_string (Lint.severity_name s) = Some s))
    [ Lint.Info; Lint.Warn; Lint.Error ];
  Alcotest.(check bool)
    "warning accepted" true
    (Lint.severity_of_string "warning" = Some Lint.Warn);
  Alcotest.(check bool) "junk rejected" true
    (Lint.severity_of_string "loud" = None)

(* --- Configuration -------------------------------------------------------- *)

let test_config_spec () =
  let known = Rules.all in
  (match
     Lint.config_of_spec ~rules:"dead-def,unreachable-block"
       ~severities:[ "dead-def=error" ] ~known ()
   with
  | Ok cfg ->
    Alcotest.(check bool)
      "exclusive selection" true
      (cfg.Lint.only = Some [ "dead-def"; "unreachable-block" ]);
    Alcotest.(check bool)
      "override recorded" true
      (List.assoc_opt "dead-def" cfg.Lint.overrides = Some Lint.Error);
    let chosen =
      List.map (fun (r : Lint.rule) -> r.Lint.id) (Lint.selected cfg known)
    in
    Alcotest.(check (list string))
      "selected honours only"
      [ "dead-def"; "unreachable-block" ]
      chosen
  | Error m -> Alcotest.fail m);
  (match Lint.config_of_spec ~rules:"-dead-def" ~severities:[] ~known () with
  | Ok cfg ->
    Alcotest.(check bool)
      "minus disables" true
      (cfg.Lint.only = None && cfg.Lint.disabled = [ "dead-def" ]);
    Alcotest.(check bool)
      "disabled dropped" true
      (not
         (List.exists
            (fun (r : Lint.rule) -> r.Lint.id = "dead-def")
            (Lint.selected cfg known)))
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool)
    "unknown rule is an error" true
    (Result.is_error
       (Lint.config_of_spec ~rules:"no-such" ~severities:[] ~known ()));
  Alcotest.(check bool)
    "bad severity is an error" true
    (Result.is_error
       (Lint.config_of_spec ~severities:[ "dead-def=loud" ] ~known ()))

let test_config_file () =
  let path = Filename.temp_file "lint" ".conf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            "# policy\ndead-def = off\nfoldable-constant = error\n");
      match Lint.config_of_file ~known:Rules.all path with
      | Ok cfg ->
        Alcotest.(check bool) "off disables" true
          (cfg.Lint.disabled = [ "dead-def" ]);
        Alcotest.(check bool)
          "level overrides" true
          (List.assoc_opt "foldable-constant" cfg.Lint.overrides
          = Some Lint.Error)
      | Error m -> Alcotest.fail m);
  let bad = Filename.temp_file "lint" ".conf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      Out_channel.with_open_text bad (fun oc -> output_string oc "nonsense\n");
      Alcotest.(check bool)
        "malformed line rejected" true
        (Result.is_error (Lint.config_of_file ~known:Rules.all bad)))

(* --- Hygiene rules on hand-built functions -------------------------------- *)

let test_dead_def () =
  let f =
    straight
      [ Instr.Const (v "a", 1); Instr.Binop (Instr.Add, v "b", v "a", v "a") ]
      "a"
  in
  let findings = run_rules f in
  Alcotest.(check bool) "dead def flagged" true (has_rule "dead-def" findings);
  (* The impure store must never be flagged dead. *)
  let g =
    straight
      [ Instr.Const (v "a", 1); Instr.Store (v "a", v "a", 0) ]
      "a"
  in
  Alcotest.(check bool)
    "store not dead" true
    (not (has_rule "dead-def" (run_rules g)))

let test_self_move_and_fold () =
  let f =
    straight
      [
        Instr.Const (v "a", 2);
        Instr.Unop (Instr.Mov, v "a", v "a");
        Instr.Binop (Instr.Mul, v "b", v "a", v "a");
        Instr.Store (v "b", v "a", 0);
      ]
      "b"
  in
  let findings = run_rules f in
  Alcotest.(check bool) "self-move flagged" true
    (has_rule "redundant-copy" findings);
  Alcotest.(check bool)
    "2*2 folds" true
    (List.exists
       (fun (x : Lint.finding) ->
         x.Lint.rule_id = "foldable-constant"
         && x.Lint.message = "always computes the constant 4")
       findings)

let test_unreachable () =
  let f =
    Func.make ~name:"f" ~params:[]
      [
        Block.make (l "entry")
          [ Instr.Const (v "a", 1) ]
          (Block.Return (Some (v "a")));
        Block.make (l "island") [] (Block.Jump (l "entry"));
      ]
  in
  Alcotest.(check bool)
    "island flagged" true
    (has_rule "unreachable-block" (run_rules f))

(* --- Thermal rules -------------------------------------------------------- *)

let test_pressure_thresholds () =
  let low = Kernels.high_pressure ~live:8 ~iters:4 () in
  Alcotest.(check bool)
    "low pressure clean" true
    (not (has_rule "pressure-exceeds-chessboard" (run_rules low)));
  let warn = Kernels.high_pressure ~live:40 ~iters:4 () in
  Alcotest.(check bool)
    "past 50% warns" true
    (List.exists
       (fun (x : Lint.finding) ->
         x.Lint.rule_id = "pressure-exceeds-chessboard"
         && x.Lint.severity = Lint.Warn)
       (run_rules warn));
  let err = Kernels.high_pressure ~live:70 ~iters:4 () in
  Alcotest.(check bool)
    "past 100% errors" true
    (List.exists
       (fun (x : Lint.finding) ->
         x.Lint.rule_id = "pressure-exceeds-chessboard"
         && x.Lint.severity = Lint.Error)
       (run_rules err))

let test_hot_accumulator () =
  (* The accumulator pattern: one variable read and rewritten on nearly
     every instruction of a long stream. *)
  let body =
    Instr.Const (v "s", 0)
    :: List.init 60 (fun _ -> Instr.Binop (Instr.Add, v "s", v "s", v "s"))
  in
  let f = straight body "s" in
  Alcotest.(check bool)
    "accumulator flagged" true
    (has_rule "hot-accumulator" (run_rules f));
  (* A short chain is below the sustain floor. *)
  let short =
    straight
      (Instr.Const (v "s", 0)
      :: List.init 5 (fun _ -> Instr.Binop (Instr.Add, v "s", v "s", v "s")))
      "s"
  in
  Alcotest.(check bool)
    "short chain clean" true
    (not (has_rule "hot-accumulator" (run_rules short)))

(* --- Engine behaviour ----------------------------------------------------- *)

let test_sorting_and_exceeds () =
  let f = Kernels.high_pressure ~live:70 ~iters:4 () in
  let findings = run_rules f in
  let ranks =
    List.map
      (fun (x : Lint.finding) ->
        match x.Lint.severity with
        | Lint.Error -> 2
        | Lint.Warn -> 1
        | Lint.Info -> 0)
      findings
  in
  Alcotest.(check bool)
    "errors first" true
    (List.sort (fun a b -> compare b a) ranks = ranks);
  Alcotest.(check bool)
    "error exceeds warn gate" true
    (Lint.exceeds ~max:(Some Lint.Warn) findings);
  Alcotest.(check bool)
    "error gate tolerates errors" true
    (not (Lint.exceeds ~max:(Some Lint.Error) findings));
  Alcotest.(check bool)
    "none tolerates nothing" true
    (Lint.exceeds ~max:None findings)

let test_overrides_applied () =
  let f =
    straight
      [ Instr.Const (v "a", 1); Instr.Binop (Instr.Add, v "b", v "a", v "a") ]
      "a"
  in
  let config =
    { Lint.default_config with Lint.overrides = [ ("dead-def", Lint.Error) ] }
  in
  let findings = Lint.run ~config Rules.all (Lint.make_ctx ~layout f) in
  Alcotest.(check bool)
    "override promotes" true
    (List.exists
       (fun (x : Lint.finding) ->
         x.Lint.rule_id = "dead-def" && x.Lint.severity = Lint.Error)
       findings)

let test_gate () =
  let clean = straight [ Instr.Const (v "a", 1) ] "a" in
  Alcotest.(check int)
    "clean function passes the gate" 0
    (List.length (Rules.gate ~layout () clean));
  let err = Kernels.high_pressure ~live:70 ~iters:4 () in
  let diags = Rules.gate ~layout () err in
  Alcotest.(check bool) "error finding gates" true (diags <> []);
  List.iter
    (fun (d : Tdfa_verify.Check.diagnostic) ->
      Alcotest.(check bool)
        "diagnostic carries the lint/ prefix" true
        (String.length d.Tdfa_verify.Check.rule > 5
        && String.sub d.Tdfa_verify.Check.rule 0 5 = "lint/"))
    diags

let test_sarif_shape () =
  let f = Kernels.fir () in
  let findings = run_rules f in
  let log = Sarif.render ~rules:Rules.all [ (Some "fir.tdfa", findings) ] in
  let log2 = Sarif.render ~rules:Rules.all [ (Some "fir.tdfa", findings) ] in
  Alcotest.(check string) "deterministic" log log2;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle log))
    [
      "\"version\": \"2.1.0\"";
      "sarif-2.1.0.json";
      "\"name\": \"tdfa-lint\"";
      "\"ruleIndex\"";
      "fir.tdfa";
    ]

(* --- Properties ----------------------------------------------------------- *)

let prop_lint_total_and_deterministic =
  QCheck2.Test.make ~name:"lint total and deterministic on random programs"
    ~count:60
    (Generator.gen_func ~max_pool:24 ~max_depth:3 ())
    (fun f ->
      let a = run_rules f in
      let b = run_rules f in
      a = b)

(* Satellite property: the loop analysis and the dominator analysis agree
   on random CFGs. Every natural-loop header dominates every block of its
   body (that is what makes the back edge a back edge), latches sit
   inside their own loop, the per-block depth is exactly the number of
   registered loops containing the block, and there cannot be more loops
   than back edges. *)
let prop_loops_dominators_agree =
  QCheck2.Test.make ~name:"natural loops agree with dominators" ~count:100
    (Generator.gen_func ~max_pool:8 ~max_depth:3 ())
    (fun f ->
      let loops = Loops.analyze f in
      let dom = Dominators.analyze f in
      let ls = Loops.loops loops in
      let headers_dominate =
        List.for_all
          (fun (lp : Loops.loop) ->
            Label.Set.for_all
              (fun b -> Dominators.dominates dom lp.Loops.header b)
              lp.Loops.body)
          ls
      in
      let latches_in_body =
        List.for_all
          (fun (lp : Loops.loop) ->
            lp.Loops.back_edges <> []
            && List.for_all
                 (fun s -> Label.Set.mem s lp.Loops.body)
                 lp.Loops.back_edges)
          ls
      in
      let depth_consistent =
        List.for_all
          (fun (b : Block.t) ->
            Loops.depth loops b.Block.label
            = List.length
                (List.filter
                   (fun (lp : Loops.loop) ->
                     Label.Set.mem b.Block.label lp.Loops.body)
                   ls))
          f.Func.blocks
      in
      let back_edge_count =
        List.fold_left
          (fun acc (lp : Loops.loop) -> acc + List.length lp.Loops.back_edges)
          0 ls
      in
      headers_dominate && latches_in_body && depth_consistent
      && List.length ls <= back_edge_count)

(* The two bound rules share the context's lazy bracket: one lint of a
   kernel runs the fixpoint behind it exactly once. *)
let test_bounds_once () =
  let obs = Tdfa_obs.Obs.memory () in
  let f = Kernels.fir () in
  ignore (Lint.run ~obs Rules.all (Lint.make_ctx ~obs ~layout f));
  let spans =
    List.filter
      (fun (e : Tdfa_obs.Obs.event) ->
        e.Tdfa_obs.Obs.name = "analysis.fixpoint"
        && e.Tdfa_obs.Obs.phase = Tdfa_obs.Obs.Begin)
      (Tdfa_obs.Obs.events obs)
  in
  Alcotest.(check int) "one analysis.fixpoint span" 1 (List.length spans)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "lint",
      [
        tc "registry well-formed" `Quick test_registry;
        tc "severity strings" `Quick test_severity_strings;
        tc "config from CLI spec" `Quick test_config_spec;
        tc "config from file" `Quick test_config_file;
        tc "dead-def rule" `Quick test_dead_def;
        tc "self-move and fold rules" `Quick test_self_move_and_fold;
        tc "unreachable rule" `Quick test_unreachable;
        tc "pressure thresholds" `Quick test_pressure_thresholds;
        tc "hot-accumulator rule" `Quick test_hot_accumulator;
        tc "sorting and exit mapping" `Quick test_sorting_and_exceeds;
        tc "severity overrides" `Quick test_overrides_applied;
        tc "pipeline gate" `Quick test_gate;
        tc "SARIF shape" `Quick test_sarif_shape;
        tc "bound rules share one fixpoint" `Quick test_bounds_once;
        QCheck_alcotest.to_alcotest prop_lint_total_and_deterministic;
        QCheck_alcotest.to_alcotest prop_loops_dominators_agree;
      ] );
  ]
