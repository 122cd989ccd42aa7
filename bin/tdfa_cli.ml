(* Command-line front end: analyze / simulate / policies / optimize /
   show / list-kernels over the built-in kernels or a textual IR file.
   Flag definitions shared across subcommands live in [Cli_args]. *)

open Cmdliner
open Tdfa_ir
open Tdfa_thermal
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_harness
module Json = Tdfa_obs.Json

let print_steps steps =
  List.iter
    (fun (s : Tdfa_optim.Pipeline.step) ->
      let status =
        match s.Tdfa_optim.Pipeline.status with
        | Tdfa_optim.Pipeline.Applied -> ""
        | Tdfa_optim.Pipeline.Warned -> "  [WARNED]"
        | Tdfa_optim.Pipeline.Skipped -> "  [SKIPPED: pass discarded]"
      in
      Printf.printf "  %-14s %-24s %10.0f est. cycles%s\n"
        s.Tdfa_optim.Pipeline.pass s.Tdfa_optim.Pipeline.detail
        s.Tdfa_optim.Pipeline.cycles_after status;
      List.iter
        (fun d -> Printf.printf "      %s\n" (Tdfa_verify.Check.to_string d))
        s.Tdfa_optim.Pipeline.diagnostics)
    steps

(* ------------------------------------------------------------------ *)
(* Subcommands                                                          *)
(* ------------------------------------------------------------------ *)

let list_kernels () =
  List.iter
    (fun (name, f) ->
      Printf.printf "%-14s %4d instrs  %2d blocks\n" name (Func.instr_count f)
        (List.length f.Func.blocks))
    Kernels.all

let show kernel file =
  Cli_args.with_func kernel file (fun f ->
      print_endline (Printer.func_to_string f))

(* Falsification under a fault plan: every seeded mutant the injectors
   can build from this program must be caught by the rules — a silent
   mutant means a rule that proves nothing. Shares the plan file (and
   its seed) with serve --chaos and batch --fault-plan. *)
let falsify ~plan ~assignment func =
  let seed = plan.Tdfa_verify.Fault.Plan.seed in
  let mutants = Tdfa_verify.Fault.inject_all ~seed ?assignment func in
  let uncaught =
    List.filter
      (fun (m : Tdfa_verify.Fault.t) ->
        let diags =
          match m.Tdfa_verify.Fault.assignment with
          | Some a ->
            Tdfa_verify.Check.all ~layout:Common.standard_layout
              ~assignment:a m.Tdfa_verify.Fault.func
          | None -> Tdfa_verify.Check.func m.Tdfa_verify.Fault.func
        in
        diags = [])
      mutants
  in
  Printf.printf "falsification (seed %d): %d/%d mutants caught\n" seed
    (List.length mutants - List.length uncaught)
    (List.length mutants);
  List.iter
    (fun (m : Tdfa_verify.Fault.t) ->
      Printf.printf "  UNCAUGHT %s: %s\n"
        (Tdfa_verify.Fault.kind_name m.Tdfa_verify.Fault.kind)
        m.Tdfa_verify.Fault.description)
    uncaught;
  if uncaught = [] then 0 else 1

let verify kernel file policy post_ra fault_plan obs_req =
  let plan = Cli_args.load_fault_plan fault_plan in
  let rc =
    Cli_args.with_func kernel file (fun f ->
        Cli_args.guard (fun () ->
            Cli_args.with_obs obs_req (fun obs ->
                let func, assignment, diags =
                  Tdfa.Obs.span obs "verify.check"
                    ~args:
                      [
                        ("func", Tdfa.Obs.Str f.Func.name);
                        ("post_ra", Tdfa.Obs.Bool post_ra);
                      ]
                    (fun () ->
                      Cli_args.check_dispatch ~obs ~post_ra ~policy f)
                in
                Tdfa.Obs.incr obs ~by:(List.length diags) "verify.violations";
                let rc =
                  match diags with
                  | [] ->
                    Printf.printf
                      "%s: verification clean (%d instrs, %d blocks)\n"
                      f.Func.name (Func.instr_count f)
                      (List.length f.Func.blocks);
                    0
                  | ds ->
                    Printf.printf "%s: %d violation(s)\n" f.Func.name
                      (List.length ds);
                    List.iter
                      (fun d ->
                        Printf.printf "  %s\n" (Tdfa_verify.Check.to_string d))
                      ds;
                    1
                in
                match plan with
                | None -> rc
                | Some plan ->
                  let frc = falsify ~plan ~assignment func in
                  max rc frc)))
  in
  if rc <> 0 then exit rc

(* ------------------------------------------------------------------ *)
(* Lint                                                                 *)
(* ------------------------------------------------------------------ *)

let list_lint_rules () =
  let table =
    Tdfa_report.Table.create ~headers:[ "rule"; "severity"; "summary" ]
  in
  List.iter
    (fun (r : Tdfa_lint.Lint.rule) ->
      Tdfa_report.Table.add_row table
        [
          r.Tdfa_lint.Lint.id;
          Tdfa_lint.Lint.severity_name r.Tdfa_lint.Lint.default_severity;
          r.Tdfa_lint.Lint.summary;
        ])
    Tdfa_lint.Rules.all;
  Tdfa_report.Table.print table

let lint files kernel kernels rules severities lint_config format max_severity
    post_ra policy list_rules obs_req =
  if list_rules then list_lint_rules ()
  else begin
    let known = Tdfa_lint.Rules.all in
    let config =
      let base =
        match lint_config with
        | None -> Ok Tdfa_lint.Lint.default_config
        | Some path -> Tdfa_lint.Lint.config_of_file ~known path
      in
      match
        Result.bind base (fun base ->
            Tdfa_lint.Lint.config_of_spec ~base ?rules ~severities ~known ())
      with
      | Ok c -> c
      | Error msg ->
        Printf.eprintf "tdfa: lint: %s\n" msg;
        exit 2
    in
    (* Inputs in the given order: files first, then -k, then (optionally)
       the whole built-in suite — same shape as batch. *)
    let loaded =
      List.map
        (fun path ->
          match Cli_args.load_func ~kernel:None ~file:(Some path) with
          | Ok f -> Ok (Some path, f)
          | Error msg -> Error (path, msg))
        files
    in
    let loaded =
      loaded
      @ (match kernel with
         | None -> []
         | Some name -> (
           match Cli_args.load_func ~kernel:(Some name) ~file:None with
           | Ok f -> [ Ok (None, f) ]
           | Error msg -> [ Error (name, msg) ]))
      @
      if kernels then
        List.map (fun (_, f) -> Ok (None, f)) Tdfa_workload.Kernels.all
      else []
    in
    let load_failures =
      List.filter_map (function Ok _ -> None | Error e -> Some e) loaded
    in
    let inputs =
      List.filter_map (function Ok i -> Some i | Error _ -> None) loaded
    in
    if inputs = [] && load_failures = [] then begin
      Printf.eprintf
        "tdfa: lint: no inputs (pass files, --kernel or --kernels)\n";
      exit 2
    end;
    let rc =
      Cli_args.with_obs obs_req (fun obs ->
          Cli_args.guard (fun () ->
              let reports =
                List.map
                  (fun (uri, f) ->
                    let _, findings =
                      Tdfa_serve.Render.lint ~obs ~config ~post_ra ~policy f
                    in
                    (uri, f, findings))
                  inputs
              in
              (match format with
               | Cli_args.Text ->
                 List.iter
                   (fun (uri, (func : Func.t), findings) ->
                     let display =
                       match uri with
                       | Some path -> Printf.sprintf "%s (%s)" func.Func.name path
                       | None -> func.Func.name
                     in
                     (* Shared with the serve daemon: one renderer, one
                        text. *)
                     print_string
                       (Tdfa_serve.Render.lint_report ~display findings))
                   reports
               | Cli_args.Sarif ->
                 print_string
                   (Tdfa_lint.Sarif.render ~rules:known
                      (List.map (fun (uri, _, fs) -> (uri, fs)) reports)));
              List.iter
                (fun (path, msg) ->
                  Printf.eprintf "tdfa: lint: %s: %s\n" path msg)
                load_failures;
              let all_findings =
                List.concat_map (fun (_, _, fs) -> fs) reports
              in
              if load_failures <> [] then 2
              else if Tdfa_lint.Lint.exceeds ~max:max_severity all_findings
              then 1
              else 0))
    in
    if rc <> 0 then exit rc
  end

let simulate kernel file policy =
  Cli_args.with_func kernel file (fun f ->
    Cli_args.guard (fun () ->
      let name = f.Func.name in
      let run = Common.run_policy ~name f policy in
      Printf.printf "kernel %s, policy %s: %d cycles, pressure %d, %d spills\n\n"
        name (Policy.name policy) run.Common.cycles
        run.Common.alloc.Alloc.max_pressure
        (Tdfa_ir.Var.Set.cardinal run.Common.alloc.Alloc.spilled);
      print_string (Heatmap.render Common.standard_layout run.Common.measured);
      Format.printf "@\n%a@\n" Metrics.pp_summary run.Common.metrics))

let analyze kernel file policy granularity delta pre_ra recover obs_req =
  (* The report text lives in [Tdfa_serve.Render.analyze], shared with
     the serve daemon so the two front ends are byte-identical by
     construction. SIGINT trips a cooperative cancellation token polled
     at fixpoint-iteration boundaries: the run stops cleanly (exit 130)
     instead of dying mid-iteration. *)
  let rc =
    Cli_args.with_func kernel file (fun f ->
      Cli_args.guard (fun () ->
        Cli_args.with_obs obs_req (fun obs ->
          let interrupted = ref false in
          let previous =
            Sys.signal Sys.sigint
              (Sys.Signal_handle (fun _ -> interrupted := true))
          in
          Fun.protect
            ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
            (fun () ->
              match
                Tdfa_serve.Render.analyze ~obs
                  ~cancel:(fun () -> !interrupted)
                  ~policy ~granularity ~delta ~pre_ra ~recover
                  ~incremental:false f
              with
              | out, _ ->
                print_string out;
                0
              | exception Analysis.Cancelled { iterations } ->
                Printf.eprintf
                  "tdfa: analyze: interrupted after %d fixpoint \
                   iterations\n"
                  iterations;
                130))))
  in
  if rc <> 0 then exit rc

(* The --json views: one compact line. *)
let print_json v = print_endline (Json.to_string v)

let predict kernel file policy granularity delta pre_ra json obs_req =
  (* The text report lives in [Tdfa_serve.Render.predict], shared with
     the serve daemon; --json emits the raw bounds for scripting (the
     predict-smoke CI gate asserts them against the analyze fixpoint). *)
  Cli_args.with_func kernel file (fun f ->
    Cli_args.guard (fun () ->
      Cli_args.with_obs obs_req (fun obs ->
        let out, b =
          Tdfa_serve.Render.predict ~obs ~policy ~granularity ~delta ~pre_ra f
        in
        if json then begin
          let open Tdfa_absint in
          (* An uncertified (infinite) bound prints as JSON null. *)
          let cell c lo =
            Json.Obj
              [ ("cell", Int c); ("lo_k", Float lo);
                ("hi_k", Float b.Absint.hi_cells.(c)) ]
          in
          let hot_k = Tdfa_lint.Rules.hot_threshold in
          print_json
            (Obj
               [ ("kernel", Str f.Func.name);
                 ("peak_lo_k", Float b.Absint.peak_lo_k);
                 ("peak_hi_k", Float b.Absint.peak_hi_k);
                 ("margin_k", Float b.Absint.margin_k);
                 ("hot_threshold_k", Float hot_k);
                 ("verdict", Str (Absint.verdict_name (Absint.verdict ~hot_k b)));
                 ("cells", List (Array.to_list (Array.mapi cell b.Absint.lo_cells)))
               ])
        end
        else print_string out)))

let place files kernels_csv cores place_name sa_iters sa_seed policy
    granularity delta json obs_req =
  (* The text report lives in [Tdfa_serve.Render.place], shared with the
     serve daemon; --json emits the placement for scripting (the
     place-smoke CI gate asserts the thermal-aware peak against the
     round-robin baseline). *)
  let geometry = Cli_args.parse_geometry cores in
  let place_policy =
    Cli_args.parse_place_policy ~sa_iters ~sa_seed place_name
  in
  let kernel_funcs =
    match kernels_csv with
    | Some names -> (
      match Kernels.lookup_list names with
      | Ok fs -> fs
      | Error msg ->
        Printf.eprintf "tdfa: %s\n" msg;
        exit 2)
    | None -> if files = [] then List.map snd Kernels.all else []
  in
  let file_funcs =
    List.map
      (fun path ->
        match Cli_args.load_func ~kernel:None ~file:(Some path) with
        | Ok f -> f
        | Error msg ->
          Printf.eprintf "tdfa: %s\n" msg;
          exit 2)
      files
  in
  let funcs = file_funcs @ kernel_funcs in
  Cli_args.guard (fun () ->
    Cli_args.with_obs obs_req (fun obs ->
      let out, placed =
        Tdfa_serve.Render.place ~obs ~policy ~granularity ~delta ~geometry
          ~place_policy funcs
      in
      if json then begin
        let open Tdfa_alloc in
        let p = placed.Tdfa.Driver.placement in
        let task (name, core) = Json.Obj [ ("task", Str name); ("core", Int core) ] in
        let temps = Array.map (fun t -> Json.Float t) p.Place.core_temps_k in
        print_json
          (Obj
             [ ("place", Str (Place.policy_name p.Place.policy));
               ("cores", Str cores);
               ("tasks", Int (List.length placed.Tdfa.Driver.profiles));
               ("peak_k", Float p.Place.peak_k);
               ("gradient_k", Float p.Place.gradient_k);
               ("score", Float p.Place.score);
               ("round_robin_peak_k", Float p.Place.round_robin_peak_k);
               ("improvement_k", Float (p.Place.round_robin_peak_k -. p.Place.peak_k));
               ("assignment", List (List.map task p.Place.assignment));
               ("core_temps_k", List (Array.to_list temps)) ])
      end
      else print_string out))

let policies kernel file =
  Cli_args.with_func kernel file (fun f ->
      let name = f.Func.name in
      let table =
        Tdfa_report.Table.create
          ~headers:[ "policy"; "peak(K)"; "range(K)"; "maxgrad(K)"; "cycles" ]
      in
      List.iter
        (fun p ->
          let r = Common.run_policy ~name f p in
          let m = r.Common.metrics in
          Tdfa_report.Table.add_row table
            [
              Policy.name p;
              Tdfa_report.Table.fk m.Metrics.peak_k;
              Tdfa_report.Table.fk m.Metrics.range_k;
              Tdfa_report.Table.fk m.Metrics.max_neighbor_gradient_k;
              string_of_int r.Common.cycles;
            ])
        Policy.all;
      Tdfa_report.Table.print table)

let optimize kernel file checked lint_gate on_violation obs_req =
  Cli_args.with_func kernel file (fun f ->
    Cli_args.guard (fun () ->
      Cli_args.with_obs obs_req (fun obs ->
      let name = f.Func.name in
      let layout = Common.standard_layout in
      let base = Common.run_policy ~name f Policy.First_fit in
      let options =
        { Tdfa_optim.Compile.optimize_options with
          Tdfa_optim.Compile.checks =
            Cli_args.checks_of ~lint:lint_gate checked on_violation;
          obs;
        }
      in
      let result = Tdfa_optim.Compile.run ~options ~layout f in
      (* Measured metrics of the compiled code under its (already fixed)
         thermal-spread assignment. *)
      let run = Tdfa_exec.Interp.run_func result.Tdfa_optim.Compile.func in
      let measured =
        Tdfa_exec.Driver.steady_temps Common.standard_model
          run.Tdfa_exec.Interp.trace
          ~cell_of_var:
            (Assignment.cell_of_var result.Tdfa_optim.Compile.assignment)
      in
      let m1 = Metrics.summarize layout measured in
      Printf.printf "thermal-aware pipeline on %s: %d critical vars\n\n" name
        (List.length result.Tdfa_optim.Compile.critical);
      if checked || lint_gate then begin
        print_steps result.Tdfa_optim.Compile.steps;
        (match
           Tdfa_optim.Pipeline.skipped_passes
             { Tdfa_optim.Pipeline.func = result.Tdfa_optim.Compile.func;
               steps = result.Tdfa_optim.Compile.steps }
         with
         | [] -> ()
         | skipped ->
           Printf.printf "degraded: skipped %s\n" (String.concat ", " skipped));
        print_newline ()
      end;
      let final = result.Tdfa_optim.Compile.analysis in
      Printf.printf "final analysis %s after %d iterations\n\n"
        (if Analysis.converged final then "converged" else "DID NOT converge")
        (Analysis.info final).Analysis.iterations;
      let m0 = base.Common.metrics in
      Printf.printf "             %10s %10s\n" "before" "after";
      Printf.printf "peak (K)     %10.2f %10.2f\n" m0.Metrics.peak_k m1.Metrics.peak_k;
      Printf.printf "range (K)    %10.2f %10.2f\n" m0.Metrics.range_k m1.Metrics.range_k;
      Printf.printf "maxgrad (K)  %10.2f %10.2f\n"
        m0.Metrics.max_neighbor_gradient_k m1.Metrics.max_neighbor_gradient_k;
      Printf.printf "cycles       %10d %10d\n" base.Common.cycles run.Tdfa_exec.Interp.cycles)))

let compile kernel file policy granularity checked lint_gate on_violation
    obs_req =
  Cli_args.with_func kernel file (fun f ->
    Cli_args.guard (fun () ->
      Cli_args.with_obs obs_req (fun obs ->
      let name = f.Func.name in
      let options =
        { Tdfa_optim.Compile.default_options with
          Tdfa_optim.Compile.policy;
          granularity;
          checks = Cli_args.checks_of ~lint:lint_gate checked on_violation;
          obs;
        }
      in
      let result =
        Tdfa_optim.Compile.run ~options ~layout:Common.standard_layout f
      in
      Printf.printf "thermal-aware compilation of %s (policy %s%s):\n\n" name
        (Policy.name policy)
        (if checked || lint_gate then
           Printf.sprintf ", checked%s, on-violation=%s"
             (if lint_gate then "+lint" else "")
             (Tdfa_optim.Pipeline.policy_name on_violation)
         else "");
      print_steps result.Tdfa_optim.Compile.steps;
      let info = Analysis.info result.Tdfa_optim.Compile.analysis in
      let peak = Analysis.peak_map info in
      Printf.printf
        "\nfinal analysis: %s after %d iterations; predicted peak %.2f K\n\n"
        (if Analysis.converged result.Tdfa_optim.Compile.analysis then
           "converged"
         else "DID NOT converge")
        info.Analysis.iterations (Thermal_state.peak peak);
      print_string
        (Heatmap.render Common.standard_layout (Thermal_state.to_cell_array peak)))))

let batch files kernels jobs cache_dir policy granularity delta recover map
    window_ms watchdog_ms fault_plan place_name cores sa_iters sa_seed
    obs_req =
  let settings = { Analysis.default_settings with Analysis.delta_k = delta } in
  let spec =
    {
      Tdfa_engine.Engine.default_spec with
      Tdfa_engine.Engine.policy;
      granularity;
      settings;
      recover;
    }
  in
  (* Files in the given order, then (optionally) the whole kernel suite.
     A file that fails to load is reported like a failed job instead of
     aborting the rest of the batch. A .trace file becomes a trace job:
     its samples are mapped (--map, --window-ms) onto the batch layout's
     cell count and it rides the same pool and cache as the IR jobs. *)
  let batch_cells =
    Common.standard_layout.Tdfa_floorplan.Layout.rows
    * Common.standard_layout.Tdfa_floorplan.Layout.cols
  in
  let window_us = Cli_args.window_us_of_ms window_ms in
  let loaded =
    List.map
      (fun path ->
        if Filename.check_suffix path ".trace" then (
          match
            let ( let* ) = Result.bind in
            let* sample = Tdfa_trace.Sample.of_file path in
            let* () =
              Tdfa_trace.Compile.check ~window_us ~cells:batch_cells sample
            in
            Ok sample
          with
          | Ok sample ->
            let compiled =
              Tdfa_trace.Compile.compile ~window_us ~policy:map
                ~cells:batch_cells sample
            in
            Ok
              (Tdfa_engine.Engine.trace_job
                 ~stream_id:
                   (Tdfa_trace.Compile.stream_id ~window_us ~policy:map
                      ~cells:batch_cells sample)
                 ~accesses:(Tdfa_trace.Compile.accesses compiled)
                 sample.Tdfa_trace.Sample.name
                 (Tdfa_trace.Compile.func compiled))
          | Error msg -> Error (path, msg))
        else
          match Cli_args.load_func ~kernel:None ~file:(Some path) with
          | Ok f ->
            Ok (Tdfa_engine.Engine.job f.Func.name f)
          | Error msg -> Error (path, msg))
      files
  in
  let suite =
    if kernels then
      List.map
        (fun (name, f) -> Tdfa_engine.Engine.job name f)
        Kernels.all
    else []
  in
  let job_list =
    List.filter_map (function Ok j -> Some j | Error _ -> None) loaded
    @ suite
  in
  let load_failures =
    List.filter_map (function Ok _ -> None | Error e -> Some e) loaded
  in
  if job_list = [] && load_failures = [] then begin
    Printf.eprintf "tdfa: batch: no inputs (pass files and/or --kernels)\n";
    exit 2
  end;
  let faults =
    Option.map Tdfa_verify.Fault.Plan.injector
      (Cli_args.load_fault_plan fault_plan)
  in
  let rc =
    Cli_args.with_obs obs_req (fun obs ->
        let cache =
          Option.map
            (fun dir -> Tdfa_engine.Engine.Cache.on_disk ~dir)
            cache_dir
        in
        (* SIGINT drains instead of killing: the stop token is polled
           before each claim, so in-flight jobs finish and are
           reported, never-claimed jobs surface as interrupted, the
           cache directory is fsynced, and the exit code is the
           conventional 130. *)
        let interrupted = ref false in
        let previous =
          Sys.signal Sys.sigint
            (Sys.Signal_handle (fun _ -> interrupted := true))
        in
        let b =
          Fun.protect
            ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
            (fun () ->
              Tdfa_engine.Engine.run_batch ~obs ~jobs ?cache
                ~stop:(fun () -> !interrupted)
                ?watchdog_ms ?faults ~layout:Common.standard_layout spec job_list)
        in
        Option.iter Tdfa_engine.Engine.Cache.sync cache;
        (* stdout carries only the deterministic per-function reports, so
           two runs at different --jobs (or a cached re-run) compare
           byte-equal; provenance, timing and cache traffic are metrics
           (render with --metrics) or trace events (--trace). *)
        List.iter
          (fun (name, result) ->
            match result with
            | Ok (r : Tdfa_engine.Engine.report) ->
              Printf.printf
                "%-14s %-9s %4d iter  peak %7.2f K  mean %7.2f K  pressure %2d  \
                 spilled %2d  %s%s\n"
                name
                (if r.Tdfa_engine.Engine.converged then "converged"
                 else "DIVERGED")
                r.Tdfa_engine.Engine.iterations r.Tdfa_engine.Engine.peak_k
                r.Tdfa_engine.Engine.mean_k r.Tdfa_engine.Engine.max_pressure
                r.Tdfa_engine.Engine.spilled
                (String.sub r.Tdfa_engine.Engine.fingerprint 0 12)
                (if r.Tdfa_engine.Engine.rung = "primary" then ""
                 else Printf.sprintf "  [%s]" r.Tdfa_engine.Engine.rung)
            | Error msg -> Printf.eprintf "tdfa: batch: %s: %s\n" name msg)
          b.Tdfa_engine.Engine.results;
        (* Core-aware scheduling: fold the finished reports into task
           profiles and place them onto the chip. The placement is a
           deterministic function of the reports, so this block keeps
           the jobs=1 vs jobs=4 byte-identity of stdout. *)
        (match place_name with
         | None -> ()
         | Some name ->
           let rows, pcols = Cli_args.parse_geometry cores in
           let place_policy =
             Cli_args.parse_place_policy ~sa_iters ~sa_seed name
           in
           let chip =
             Tdfa_alloc.Chip.make ~params:spec.Tdfa_engine.Engine.params
               ~core:Common.standard_layout ~rows ~cols:pcols ()
           in
           let p =
             Tdfa_engine.Engine.placement_of_batch ~obs ~chip
               ~policy:place_policy spec b
           in
           let open Tdfa_alloc in
           Printf.printf "\nplacement %s on %s cores: peak %.2f K, gradient \
                          %.2f K\n"
             (Place.policy_name p.Place.policy)
             cores p.Place.peak_k p.Place.gradient_k;
           Array.iteri
             (fun c temp_k ->
               let names =
                 List.filter_map
                   (fun (n, c') -> if c' = c then Some n else None)
                   p.Place.assignment
               in
               Printf.printf "  core %d  steady %.2f K  %s\n" c temp_k
                 (if names = [] then "(idle)" else String.concat "," names))
             p.Place.core_temps_k);
        List.iter
          (fun (path, msg) -> Printf.eprintf "tdfa: batch: %s: %s\n" path msg)
          load_failures;
        if b.Tdfa_engine.Engine.stopped then begin
          Printf.eprintf
            "tdfa: batch: interrupted; in-flight jobs drained, cache \
             synced\n";
          130
        end
        else if b.Tdfa_engine.Engine.failed > 0 || load_failures <> [] then 1
        else 0)
  in
  if rc <> 0 then exit rc

(* ------------------------------------------------------------------ *)
(* Serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve socket chaos fault_plan deadline_ms obs_req =
  let faults =
    match (Cli_args.load_fault_plan fault_plan, chaos) with
    | Some plan, _ -> plan
    | None, Some seed -> Tdfa_verify.Fault.Plan.default ~seed
    | None, None -> Tdfa_verify.Fault.Plan.none
  in
  Cli_args.with_obs obs_req (fun obs ->
      let config =
        {
          Tdfa_serve.Server.default_config with
          Tdfa_serve.Server.deadline_ms;
          faults;
          obs;
        }
      in
      let t = Tdfa_serve.Server.create ~config () in
      (* SIGINT/SIGTERM ask the select loop to wind down cleanly: the
         socket file is removed and clients are closed, same as a
         shutdown request. *)
      let stop _ = t.Tdfa_serve.Server.shutting_down <- true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Tdfa_serve.Server.run
        ~ready:(fun () ->
          Printf.printf "tdfa serve: listening on %s\n%!" socket)
        t ~socket_path:socket;
      Printf.printf "tdfa serve: done (%d requests, %d crashes, %d degraded)\n"
        t.Tdfa_serve.Server.served t.Tdfa_serve.Server.crashes
        t.Tdfa_serve.Server.degraded)

let client socket raw timeout_s =
  (* Connect with linear retry so `tdfa serve &' races are benign. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec connect () =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> true
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      connect ()
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "tdfa: client: %s: %s\n" socket (Unix.error_message e);
      false
  in
  if not (connect ()) then exit 1;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rc = ref 0 in
  (try
     let rec pump () =
       match In_channel.input_line stdin with
       | None -> ()
       | Some line when String.trim line = "" -> pump ()
       | Some line ->
         output_string oc line;
         output_char oc '\n';
         flush oc;
         (match In_channel.input_line ic with
          | None ->
            Printf.eprintf "tdfa: client: connection closed by server\n";
            rc := 1
          | Some reply ->
            if raw then print_endline reply
            else (
              match Tdfa_serve.Json.of_string reply with
              | Error msg ->
                Printf.eprintf "tdfa: client: bad reply: %s\n" msg;
                rc := 1
              | Ok j -> (
                match Tdfa_serve.Json.bool_member "ok" j with
                | Some true ->
                  Option.iter print_string
                    (Tdfa_serve.Json.str_member "output" j)
                | _ ->
                  Printf.eprintf "tdfa: server error (%s): %s\n"
                    (Option.value ~default:"?"
                       (Tdfa_serve.Json.str_member "kind" j))
                    (Option.value ~default:"?"
                       (Tdfa_serve.Json.str_member "error" j));
                  rc := 1));
            pump ())
     in
     pump ()
   with Sys_error msg ->
     Printf.eprintf "tdfa: client: %s\n" msg;
     rc := 1);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !rc <> 0 then exit !rc

(* ------------------------------------------------------------------ *)
(* Trace ingestion                                                      *)
(* ------------------------------------------------------------------ *)

let trace file zipf stream addrs samples seed map cells window_ms granularity
    delta recover obs_req =
  let window_us = Cli_args.window_us_of_ms window_ms in
  let usage msg =
    Printf.eprintf "tdfa: trace: %s\n" msg;
    exit 2
  in
  (* The cell count is checked before anything is read or allocated. *)
  Result.iter_error usage (Tdfa_trace.Mapping.check_cells cells);
  (* The file is read inside the obs scope, so its parse is traced. *)
  let load =
    match (file, zipf, stream) with
    | Some path, None, false ->
      fun obs ->
        Result.map_error
          (Printf.sprintf "%s: %s" path)
          (Tdfa_trace.Sample.of_file ~obs path)
    | None, Some s, false ->
      fun _ -> Ok (Tdfa_trace.Synth.zipf ~seed ~s ~addrs ~n:samples ())
    | None, None, true ->
      fun _ ->
        Ok (Tdfa_trace.Synth.stream ~seed ~footprint:addrs ~n:samples ())
    | None, None, false -> usage "pass a FILE, or --zipf S, or --stream"
    | _ -> usage "FILE, --zipf and --stream are mutually exclusive"
  in
  (* Same report wiring as analyze: the text lives in
     [Tdfa_serve.Render.trace], and SIGINT cancels the fixpoint
     cooperatively. *)
  let run obs sample =
    let interrupted = ref false in
    let previous =
      Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> interrupted := true))
    in
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
      (fun () ->
        match
          Tdfa_serve.Render.trace ~obs
            ~cancel:(fun () -> !interrupted)
            ~window_us ~policy:map ~cells ~granularity ~delta ~recover sample
        with
        | out ->
          print_string out;
          0
        | exception Analysis.Cancelled { iterations } ->
          Printf.eprintf
            "tdfa: trace: interrupted after %d fixpoint iterations\n"
            iterations;
          130)
  in
  let rc =
    Cli_args.guard (fun () ->
        Cli_args.with_obs obs_req (fun obs ->
            match load obs with
            | Error msg ->
              Printf.eprintf "tdfa: %s\n" msg;
              1
            | Ok sample -> (
              match Tdfa_trace.Compile.check ~window_us ~cells sample with
              | Error msg ->
                Printf.eprintf "tdfa: trace: %s\n" msg;
                2
              | Ok () -> run obs sample)))
  in
  if rc <> 0 then exit rc

let experiments id =
  let run = function
    | "fig1" -> ignore (Experiments.fig1 ())
    | "fig2" -> ignore (Experiments.fig2 ())
    | "e3" -> ignore (Experiments.e3 ())
    | "e4" -> ignore (Experiments.e4 ())
    | "e5" -> ignore (Experiments.e5 ())
    | "e6" -> ignore (Experiments.e6 ())
    | "e7" -> ignore (Experiments.e7 ())
    | "e9" -> ignore (Experiments.e9 ())
    | "e10" -> ignore (Experiments.e10 ())
    | "e11" -> ignore (Experiments.e11 ())
    | "e12" -> ignore (Experiments.e12 ())
    | "e13" -> ignore (Experiments.e13 ())
    | "e14" -> ignore (Experiments.e14 ())
    | "e15" -> ignore (Experiments.e15 ())
    | "e16" -> ignore (Experiments.e16 ())
    | "e17" -> ignore (Experiments.e17 ())
    | "e18" -> ignore (Experiments.e18 ())
    | "e19" -> ignore (Experiments.e19 ())
    | "e20" -> ignore (Experiments.e20 ())
    | "e20-quick" ->
      (* CI smoke: a small corpus — the fingerprint assertions still
         run on every event. *)
      ignore (Experiments.e20 ~n:12 ())
    | "e21" -> ignore (Experiments.e21 ())
    | "e21-quick" ->
      (* CI smoke: small grid ladder, single timing rep — bit-identity
         is still asserted on every pair. *)
      ignore (Experiments.e21 ~quick:true ~repeats:1 ())
    | "e22" -> ignore (Experiments.e22 ())
    | "e22-quick" ->
      (* CI smoke: shorter streams — the uniform-equivalence assertion
         still runs. *)
      ignore (Experiments.e22 ~n:4000 ())
    | "e23" -> ignore (Experiments.e23 ())
    | "e23-quick" ->
      (* CI smoke: small corpus, single timing rep — the per-cell
         containment battery still runs on every function. *)
      ignore (Experiments.e23 ~n:20 ~repeats:1 ())
    | "e24" -> ignore (Experiments.e24 ())
    | "e24-quick" ->
      (* CI smoke: small corpus, short annealing — the never-worse
         guarantee is still asserted on every policy. *)
      ignore (Experiments.e24 ~n:12 ~sa_iters:300 ())
    | "all" -> Experiments.run_all ()
    | other ->
      Printf.eprintf
        "tdfa: unknown experiment %s (fig1, fig2, e3-e7, e9-e24, all)\n" other;
      exit 1
  in
  run (String.lowercase_ascii id)

(* ------------------------------------------------------------------ *)
(* Command wiring                                                       *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  Cmd.v (Cmd.info "list-kernels" ~doc:"List the built-in kernels.")
    Term.(const list_kernels $ const ())

let show_cmd =
  Cmd.v (Cmd.info "show" ~doc:"Print a kernel or IR file.")
    Term.(const show $ Cli_args.kernel_arg $ Cli_args.file_arg)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Allocate, execute and thermally simulate a program.")
    Term.(const simulate $ Cli_args.kernel_arg $ Cli_args.file_arg
          $ Cli_args.policy_arg)

let pre_ra_arg =
  Arg.(value & flag
       & info [ "pre-ra" ]
           ~doc:
             "Run the predictive pre-allocation analysis (no register \
              assignment yet; variables placed by the region heuristic).")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the thermal data-flow analysis (Fig. 2) on a program.")
    Term.(
      const analyze $ Cli_args.kernel_arg $ Cli_args.file_arg
      $ Cli_args.policy_arg $ Cli_args.granularity_arg $ Cli_args.delta_arg
      $ pre_ra_arg $ Cli_args.recover_arg $ Cli_args.obs_term)

let predict_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:
             "Emit the bounds as one JSON object instead of the text \
              report (for scripting and the predict-smoke CI gate).")

let predict_cmd =
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Certified $(b,[lo, hi]) steady-temperature bounds: the stopped \
          fixpoint below, a post-fixpoint verified by one more sweep \
          above — sound against the fixpoint at any $(b,--delta).")
    Term.(
      const predict $ Cli_args.kernel_arg $ Cli_args.file_arg
      $ Cli_args.policy_arg $ Cli_args.granularity_arg $ Cli_args.delta_arg
      $ pre_ra_arg $ predict_json_arg $ Cli_args.obs_term)

let post_ra_verify_arg =
  Cli_args.post_ra_arg
    ~doc:
      "Also allocate registers (with $(b,--policy)) and check the \
       post-allocation consistency rules."

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a program against the IR verifier (CFG integrity, \
          definite assignment, spill-slot balance); exit 1 on any \
          violation.")
    Term.(const verify $ Cli_args.kernel_arg $ Cli_args.file_arg
          $ Cli_args.policy_arg $ post_ra_verify_arg
          $ Cli_args.fault_plan_arg $ Cli_args.obs_term)

let lint_files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILES"
         ~doc:
           "Input files: textual IR, or TC source when the name ends in \
            .tc.")

let lint_kernels_arg =
  Arg.(value & flag
       & info [ "kernels" ]
           ~doc:"Also lint the whole built-in kernel suite.")

let lint_post_ra_arg =
  Cli_args.post_ra_arg
    ~doc:
      "Allocate registers first (with $(b,--policy)) and lint the \
       rewritten function under its real assignment instead of the \
       predictive placement."

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static thermal and hygiene rules over programs \
          without running the thermal fixpoint: a cheap pre-screen \
          that flags thermally risky code (pressure past the \
          chessboard breakdown, loop-concentrated access density, \
          clustered hot assignments) plus IR smells. Exit 0 when every \
          finding is within $(b,--max-severity), 1 otherwise, 2 on \
          unusable inputs.")
    Term.(
      const lint $ lint_files_arg $ Cli_args.kernel_arg $ lint_kernels_arg
      $ Cli_args.rules_arg $ Cli_args.severity_override_arg
      $ Cli_args.lint_config_arg $ Cli_args.lint_format_arg
      $ Cli_args.max_severity_arg $ lint_post_ra_arg $ Cli_args.policy_arg
      $ Cli_args.list_rules_arg $ Cli_args.obs_term)

let policies_cmd =
  Cmd.v
    (Cmd.info "policies"
       ~doc:"Compare register assignment policies thermally (Fig. 1).")
    Term.(const policies $ Cli_args.kernel_arg $ Cli_args.file_arg)

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the thermal-aware pass pipeline and report the effect.")
    Term.(const optimize $ Cli_args.kernel_arg $ Cli_args.file_arg
          $ Cli_args.checked_arg $ Cli_args.lint_gate_arg
          $ Cli_args.on_violation_arg $ Cli_args.obs_term)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run the full thermal-aware compilation pipeline (cleanup, \
          promotion, splitting, thermal assignment, scheduling) and report \
          the predicted map.")
    Term.(const compile $ Cli_args.kernel_arg $ Cli_args.file_arg
          $ Cli_args.policy_arg $ Cli_args.granularity_arg
          $ Cli_args.checked_arg $ Cli_args.lint_gate_arg
          $ Cli_args.on_violation_arg $ Cli_args.obs_term)

let batch_files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILES"
         ~doc:
           "Input files: textual IR, TC source when the name ends in .tc, \
            or a sampled access stream when it ends in .trace.")

let batch_kernels_arg =
  Arg.(value & flag
       & info [ "kernels" ]
           ~doc:"Also analyze the whole built-in kernel suite.")

let batch_place_arg =
  Arg.(value & opt (some string) None & info [ "place" ] ~docv:"POLICY"
         ~doc:
           "After the batch finishes, place the successful jobs onto the \
            $(b,--cores) chip under $(docv) (round-robin, greedy, \
            coolest or anneal) and print the core-aware schedule; \
            deterministic, so stdout stays byte-identical across \
            $(b,--jobs) settings.")

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many programs at once on a parallel domain pool, with \
          an optional content-addressed result cache. Inputs ending in \
          .trace are sampled access streams: they are compiled with \
          $(b,--map)/$(b,--window-ms) onto the standard 64-cell file and \
          ride the same pool and cache. Reports (stdout) are \
          deterministic: byte-identical across $(b,--jobs) settings and \
          cached re-runs. $(b,--place) additionally schedules the \
          finished jobs core-aware.")
    Term.(
      const batch $ batch_files_arg $ batch_kernels_arg $ Cli_args.jobs_arg
      $ Cli_args.cache_arg $ Cli_args.policy_arg $ Cli_args.granularity_arg
      $ Cli_args.delta_arg $ Cli_args.recover_arg $ Cli_args.map_arg
      $ Cli_args.window_ms_arg $ Cli_args.watchdog_arg
      $ Cli_args.fault_plan_arg $ batch_place_arg
      $ Cli_args.cores_arg $ Cli_args.sa_iters_arg $ Cli_args.sa_seed_arg
      $ Cli_args.obs_term)

let place_files_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILES"
         ~doc:
           "Extra task programs: textual IR, or TC source when the name \
            ends in .tc.")

let place_kernels_arg =
  Arg.(value & opt (some string) None & info [ "kernels" ] ~docv:"NAMES"
         ~doc:
           "Comma-separated built-in kernels to place (default: the \
            whole suite when no files are given).")

let place_policy_arg =
  Arg.(value & opt string "greedy" & info [ "place" ] ~docv:"POLICY"
         ~doc:
           "Allocation policy: $(b,round-robin) (thermally blind \
            baseline), $(b,greedy) (hottest task to coolest core), \
            $(b,coolest) (coolest-neighbor heuristic) or $(b,anneal) \
            (seeded simulated annealing from the greedy start).")

let place_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:
             "Emit the placement as one JSON object instead of the text \
              report (for scripting and the place-smoke CI gate).")

let place_cmd =
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Thermal-aware task allocation: analyze each task's thermal \
          profile (the same fixpoint $(b,analyze) runs), then place the \
          task set onto an N-core chip floorplan — every core an \
          8x8-cell register file, laterally RC-coupled — minimizing \
          peak temperature and spatial gradient. The thermal-aware \
          policies never exceed the round-robin baseline's peak.")
    Term.(
      const place $ place_files_arg $ place_kernels_arg $ Cli_args.cores_arg
      $ place_policy_arg $ Cli_args.sa_iters_arg $ Cli_args.sa_seed_arg
      $ Cli_args.policy_arg $ Cli_args.granularity_arg $ Cli_args.delta_arg
      $ place_json_arg $ Cli_args.obs_term)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "s"; "socket" ]
         ~docv:"PATH"
         ~doc:"Unix socket path of the daemon.")

let chaos_arg =
  Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED"
         ~doc:
           "Run under the standard seeded chaos mix: malformed frames, \
            mid-request disconnects, corrupted recordings, transient \
            failures, broken IR and handler crashes, all deterministic \
            in $(docv). Overridden by $(b,--fault-plan).")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:
           "Default per-request deadline: an analysis still iterating \
            when it expires is cancelled cooperatively and answered \
            with a structured deadline error.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant analysis daemon: line-delimited JSON \
          over a Unix socket (analyze, reanalyze, lint, status, \
          shutdown), one crash-only session per connection keeping the \
          parsed program and its warm-start recording resident. \
          Successful analyze/lint responses are byte-identical to the \
          one-shot CLI.")
    Term.(const serve $ socket_arg $ chaos_arg $ Cli_args.fault_plan_arg
          $ deadline_arg $ Cli_args.obs_term)

let raw_arg =
  Arg.(value & flag
       & info [ "raw" ]
           ~doc:
             "Print whole response frames (JSON) instead of just the \
              output field.")

let connect_timeout_arg =
  Arg.(value & opt float 5.0 & info [ "connect-timeout" ] ~docv:"S"
         ~doc:"How long to keep retrying the initial connection.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send request lines from stdin to a running $(b,tdfa serve) \
          daemon and print each response's output field (exit 1 if any \
          response is an error).")
    Term.(const client $ socket_arg $ raw_arg $ connect_timeout_arg)

let trace_file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:
           "Sampled access stream to analyze: one $(b,seconds R|W \
            address) line per sample, $(b,#) comments (the perf-script \
            shape; $(b,load)/$(b,store)/$(b,mem-loads)/$(b,mem-stores) \
            are accepted access kinds).")

let zipf_arg =
  Arg.(value & opt (some float) None & info [ "zipf" ] ~docv:"S"
         ~doc:
           "Instead of a file, generate a Zipf($(docv)) synthetic stream \
            over $(b,--addrs) words ($(b,--zipf 0) is the uniform \
            stream).")

let stream_flag_arg =
  Arg.(value & flag
       & info [ "stream" ]
           ~doc:
             "Instead of a file, generate a sliding-window streaming \
              stream over $(b,--addrs) words.")

let addrs_arg =
  Arg.(value & opt int 64 & info [ "addrs" ] ~docv:"N"
         ~doc:"Working-set size of a synthetic stream, in words.")

let samples_arg =
  Arg.(value & opt int 20000 & info [ "samples" ] ~docv:"N"
         ~doc:"Length of a synthetic stream, in samples.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Seed of a synthetic stream (generation is deterministic).")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Analyze a sampled address trace: map addresses onto RF cells \
          ($(b,--map), $(b,--cells)), compile the samples into \
          per-window access events ($(b,--window-ms)), run the thermal \
          fixpoint over them, and report the predicted map next to the \
          RC simulator's measured steady peak. Synthetic Zipf and \
          streaming workloads are built in ($(b,--zipf), $(b,--stream)).")
    Term.(
      const trace $ trace_file_arg $ zipf_arg $ stream_flag_arg $ addrs_arg
      $ samples_arg $ seed_arg $ Cli_args.map_arg $ Cli_args.cells_arg
      $ Cli_args.window_ms_arg $ Cli_args.granularity_arg
      $ Cli_args.delta_arg $ Cli_args.recover_arg $ Cli_args.obs_term)

let experiments_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID"
           ~doc:"Experiment to run: fig1, fig2, e3-e7, e9-e24 (e20-quick/e21-quick/e22-quick/e23-quick/e24-quick for small smoke runs) or all.")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce the paper's figures and the extended experiments.")
    Term.(const experiments $ id_arg)

let main_cmd =
  let doc = "thermal-aware data flow analysis (Ayala/Atienza/Brisk, DAC'09)" in
  (* The shared-flag matrix: which of the [Cli_args] flags each
     subcommand accepts, documented once at the group level so
     `tdfa --help' is the index. *)
  let man =
    [
      `S "SHARED FLAGS";
      `P
        "Subcommands draw from one shared flag vocabulary; a flag means \
         the same thing everywhere it appears.";
      `P
        "$(b,--kernel)/$(b,--file) (program input): analyze, predict, \
         simulate, policies, optimize, compile, verify, show; lint and \
         batch take positional files.";
      `P
        "$(b,--policy) (register assignment): analyze, predict, simulate, \
         policies, batch, compile, verify, lint, optimize, place.";
      `P
        "$(b,--granularity), $(b,--delta) (analysis fidelity): analyze, \
         predict, batch, compile, trace, place.";
      `P
        "$(b,--cores), $(b,--place), $(b,--sa-iters), $(b,--sa-seed) \
         (task-to-core placement): place; batch schedules its finished \
         jobs with the same flags.";
      `P "$(b,--recover) (divergence-recovery ladder): analyze, batch, trace.";
      `P
        "$(b,--map), $(b,--cells), $(b,--window-ms) (sampled-trace \
         ingestion): trace; batch accepts $(b,--map) and \
         $(b,--window-ms) for .trace inputs (the cell count is the \
         batch layout's).";
      `P "$(b,--jobs), $(b,--cache), $(b,--watchdog-ms) (the analysis pool): batch.";
      `P "$(b,--fault-plan) (seeded fault injection): batch, serve, verify.";
      `P
        "$(b,--trace), $(b,--trace-format), $(b,--metrics) \
         (observability): analyze, batch, trace, optimize, compile, \
         verify, lint, serve.";
    ]
  in
  Cmd.group (Cmd.info "tdfa" ~version:"1.0.0" ~doc ~man)
    [
      list_cmd; show_cmd; simulate_cmd; analyze_cmd; predict_cmd; batch_cmd;
      place_cmd; lint_cmd; policies_cmd; optimize_cmd; compile_cmd;
      verify_cmd; serve_cmd; client_cmd; experiments_cmd; trace_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
