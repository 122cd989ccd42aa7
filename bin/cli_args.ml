(* Shared flag vocabulary of the tdfa CLI: every subcommand that loads a
   program, picks a policy or emits observability data goes through the
   definitions here, so analyze / batch / verify (and friends) accept
   the same spellings with the same semantics and the same docs. *)

open Cmdliner
open Tdfa_ir
open Tdfa_regalloc
open Tdfa_workload

(* ------------------------------------------------------------------ *)
(* Program input                                                        *)
(* ------------------------------------------------------------------ *)

let load_func ~kernel ~file =
  match (kernel, file) with
  | Some name, None -> Kernels.lookup name
  | None, Some path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | source ->
      if Filename.check_suffix path ".tc" then (
        (* TC source: run the front end. *)
        match Tdfa_lang.Front.compile_func_string source with
        | f -> Ok f
        | exception Tdfa_lang.Front.Error msg -> Error ("tc error: " ^ msg))
      else (
        match Parser.parse_func source with
        | f -> Ok f
        | exception Parser.Error msg -> Error ("parse error: " ^ msg))
    | exception Sys_error msg -> Error msg)
  | Some _, Some _ -> Error "--kernel and --file are mutually exclusive"
  | None, None -> Error "one of --kernel or --file is required"

let kernel_arg =
  Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"NAME"
         ~doc:"Built-in kernel to operate on (see $(b,list-kernels)).")

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:
           "File to operate on: textual IR, or TC source when the name \
            ends in .tc.")

let with_func kernel file k =
  match load_func ~kernel ~file with
  | Ok f -> k f
  | Error msg ->
    Printf.eprintf "tdfa: %s\n" msg;
    exit 1

(* Structured one-line errors instead of uncaught-exception backtraces on
   the execution and analysis paths. *)
let guard k =
  try k () with
  | Tdfa_exec.Interp.Runtime_error msg ->
    Printf.eprintf "tdfa: runtime error: %s\n" msg;
    exit 1
  | Tdfa_exec.Interp.Out_of_fuel cycles ->
    Printf.eprintf "tdfa: execution exceeded the fuel budget (%d cycles)\n"
      cycles;
    exit 1
  | Not_found ->
    Printf.eprintf
      "tdfa: internal error: no analysis state at the requested program \
       point\n";
    exit 1
  | Tdfa_optim.Pipeline.Verification_failed { pass; diagnostics } ->
    Printf.eprintf "tdfa: verification failed after pass %s (%d violations)\n"
      pass (List.length diagnostics);
    List.iter
      (fun d -> Printf.eprintf "  %s\n" (Tdfa_verify.Check.to_string d))
      diagnostics;
    exit 1

(* ------------------------------------------------------------------ *)
(* Verifier dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* The verify subcommand's one question — "allocate first and check the
   post-RA rules, or check the plain function?" — answered by the same
   prelude as lint, so the Check.all-vs-Check.func dispatch lives here
   exactly once. *)
let check_dispatch ~obs ~post_ra ~policy f =
  let func, assignment =
    Tdfa_serve.Render.allocate_for ~obs ~post_ra ~policy f
  in
  let diags =
    match assignment with
    | Some a ->
      Tdfa_verify.Check.all ~layout:Tdfa_harness.Common.standard_layout
        ~assignment:a func
    | None -> Tdfa_verify.Check.func func
  in
  (func, assignment, diags)

let post_ra_arg ~doc = Arg.(value & flag & info [ "post-ra" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Analysis knobs                                                       *)
(* ------------------------------------------------------------------ *)

let policy_conv =
  let parse s =
    match Policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %s" s))
  in
  let print ppf p = Format.pp_print_string ppf (Policy.name p) in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(value & opt policy_conv Policy.First_fit
       & info [ "p"; "policy" ] ~docv:"POLICY"
           ~doc:
             "Register assignment policy: first-fit, round-robin, random, \
              chessboard, thermal-spread or bank-pack.")

(* An out-of-range knob is a usage error (exit 2) with the message the
   daemon's bad-request carries: both front ends validate with
   [Tdfa.Driver.check_granularity] and [Tdfa.Driver.check_delta]. *)
let checked_knob check term =
  let accept v =
    match check v with
    | Ok () -> v
    | Error msg ->
      Printf.eprintf "tdfa: %s\n" msg;
      exit 2
  in
  Term.(const accept $ term)

let granularity_arg =
  checked_knob Tdfa.Driver.check_granularity
    Arg.(value & opt int 1 & info [ "g"; "granularity" ] ~docv:"G"
           ~doc:"Thermal-state granularity (cells per point edge), at least 1.")

let delta_arg =
  checked_knob Tdfa.Driver.check_delta
    Arg.(value & opt float 0.05 & info [ "d"; "delta" ] ~docv:"K"
           ~doc:
             "Convergence threshold of the analysis, in kelvin: finite and \
              non-negative.")

let recover_arg =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:
             "On divergence, climb the recovery ladder: retry with the \
              Average join, then at coarser granularities, and report \
              which fallback converged.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Size of the analysis domain pool (parallel workers).")

let cache_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:
           "Content-addressed result cache directory: re-runs over \
            unchanged inputs return the stored report instead of \
            re-running the fixpoint.")

(* ------------------------------------------------------------------ *)
(* Trace ingestion knobs                                                *)
(* ------------------------------------------------------------------ *)

(* Shared by `tdfa trace' and `tdfa batch' (which accepts .trace files
   among its inputs): one spelling for the mapping policy, the cell
   budget and the window size, documented once. *)
let map_conv =
  let parse s =
    match Tdfa_trace.Mapping.policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p =
    Format.pp_print_string ppf (Tdfa_trace.Mapping.policy_name p)
  in
  Arg.conv (parse, print)

let map_arg =
  Arg.(value & opt map_conv Tdfa_trace.Mapping.Direct
       & info [ "map" ] ~docv:"POLICY"
           ~doc:
             "Address-to-cell mapping policy for sampled traces: \
              $(b,direct) (word index modulo the cell count, preserving \
              the stream's spatial structure), $(b,zipf-rank) (words \
              ranked by access count, hottest word on cell 0) or \
              $(b,hashed) (structure-scattering uniform baseline).")

let cells_arg =
  Arg.(value & opt int 64 & info [ "cells" ] ~docv:"N"
         ~doc:
           "Number of RF cells sampled addresses are mapped onto; the \
            analysis runs on the near-square layout holding $(docv) \
            cells (64 is the paper's 8x8 file).")

let window_ms_arg =
  Arg.(value & opt float 1.0 & info [ "window-ms" ] ~docv:"MS"
         ~doc:
           "Trace discretisation window: each $(docv) milliseconds of \
            samples become one analysis instruction, with per-cell \
            access counts as weights.")

let window_us_of_ms ms =
  let us = int_of_float (ms *. 1000.0) in
  if us <= 0 then begin
    Printf.eprintf "tdfa: --window-ms must be at least 0.001\n";
    exit 2
  end;
  us

(* ------------------------------------------------------------------ *)
(* Placement knobs                                                      *)
(* ------------------------------------------------------------------ *)

(* Shared by `tdfa place' and `tdfa batch --place': one spelling for
   the chip geometry and the allocation policy, documented once. *)
let cores_arg =
  Arg.(value & opt string "2x2" & info [ "cores" ] ~docv:"RxC"
         ~doc:
           "Chip geometry for task placement: $(docv) cores, each \
            carrying the standard 8x8-cell register file, coupled \
            laterally through the chip-level RC network.")

let sa_iters_arg =
  Arg.(value & opt int 2000 & info [ "sa-iters" ] ~docv:"N"
         ~doc:
           "Simulated-annealing iterations for the $(b,anneal) \
            placement policy (0 degrades exactly to greedy).")

let sa_seed_arg =
  Arg.(value & opt int 0 & info [ "sa-seed" ] ~docv:"SEED"
         ~doc:
           "Seed of the $(b,anneal) placement policy (annealing is \
            deterministic in the seed).")

let parse_geometry s =
  match Tdfa_alloc.Chip.geometry_of_string s with
  | Ok g -> g
  | Error msg ->
    Printf.eprintf "tdfa: %s\n" msg;
    exit 2

let parse_place_policy ~sa_iters ~sa_seed name =
  match
    Tdfa_alloc.Place.policy_of_string ~seed:sa_seed ~iters:sa_iters name
  with
  | Ok p -> p
  | Error msg ->
    Printf.eprintf "tdfa: %s\n" msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Fault plans                                                          *)
(* ------------------------------------------------------------------ *)

(* One seeded fault-plan format shared by serve, batch and verify (see
   EXPERIMENTS.md): the flag parses here so all three commands reject a
   bad file with the same message. *)
let fault_plan_arg =
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"FILE"
         ~doc:
           "Seeded fault plan: one $(b,key = value) binding per line \
            ($(b,seed), $(b,stall-ms), one line per fault-site rate), \
            $(b,#) comments. The same file drives $(b,serve) chaos, \
            $(b,batch) stall/torn-cache injection and $(b,verify) \
            falsification; see EXPERIMENTS.md for the format.")

let load_fault_plan = function
  | None -> None
  | Some path -> (
    match Tdfa_verify.Fault.Plan.of_file path with
    | Ok plan -> Some plan
    | Error msg ->
      Printf.eprintf "tdfa: fault-plan: %s: %s\n" path msg;
      exit 2)

let watchdog_arg =
  Arg.(value & opt (some float) None & info [ "watchdog-ms" ] ~docv:"MS"
         ~doc:
           "Arm the pool watchdog: a worker stuck on one job longer \
            than $(docv) is presumed wedged and its job is re-run on a \
            replacement domain.")

(* ------------------------------------------------------------------ *)
(* Checked-pipeline policy                                              *)
(* ------------------------------------------------------------------ *)

let checked_arg =
  Arg.(value & flag
       & info [ "checked" ]
           ~doc:
             "Verify every pass's output with the IR verifier and apply \
              the $(b,--on-violation) policy.")

let on_violation_conv =
  let parse = function
    | "fail" -> Ok Tdfa_optim.Pipeline.Fail
    | "warn" -> Ok Tdfa_optim.Pipeline.Warn
    | "degrade" -> Ok Tdfa_optim.Pipeline.Degrade
    | other -> Error (`Msg (Printf.sprintf "unknown policy %s" other))
  in
  let print ppf p =
    Format.pp_print_string ppf (Tdfa_optim.Pipeline.policy_name p)
  in
  Arg.conv (parse, print)

let on_violation_arg =
  Arg.(value & opt on_violation_conv Tdfa_optim.Pipeline.Degrade
       & info [ "on-violation" ] ~docv:"POLICY"
           ~doc:
             "What a verification violation means under $(b,--checked): \
              fail (abort), warn (keep the pass), or degrade (discard the \
              pass and continue).")

let lint_gate_arg =
  Arg.(value & flag
       & info [ "lint-gate" ]
           ~doc:
             "Gate every pass on lint cleanliness as well: the per-pass \
              verification additionally runs the thermal lint rules and \
              treats error-severity findings as violations (implies \
              $(b,--checked)).")

let checks_of ?(lint = false) checked on_violation =
  if lint then
    Some
      (Tdfa_lint.Rules.pipeline_checks
         ~layout:Tdfa_harness.Common.standard_layout on_violation)
  else if checked then Some (Tdfa_optim.Pipeline.checks on_violation)
  else None

(* ------------------------------------------------------------------ *)
(* Lint                                                                 *)
(* ------------------------------------------------------------------ *)

let rules_arg =
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"LIST"
         ~doc:
           "Comma-separated rule selection: bare ids make the run \
            exclusive to them, a $(b,-) prefix disables a rule (e.g. \
            $(b,--rules dead-def,redundant-copy) or $(b,--rules \
            -foldable-constant)). See $(b,--list-rules).")

let severity_override_arg =
  Arg.(value & opt_all string [] & info [ "severity" ] ~docv:"RULE=LEVEL"
         ~doc:
           "Override a rule's severity (repeatable): \
            $(b,--severity dead-def=error). Levels: info, warn, error.")

let lint_config_arg =
  Arg.(value & opt (some string) None & info [ "lint-config" ] ~docv:"FILE"
         ~doc:
           "Lint configuration file: one $(b,rule = info|warn|error|off) \
            binding per line, $(b,#) comments. CLI flags are applied on \
            top of it.")

type lint_format = Text | Sarif

let lint_format_arg =
  let format_conv = Arg.enum [ ("text", Text); ("sarif", Sarif) ] in
  Arg.(value & opt format_conv Text & info [ "format" ] ~docv:"FORMAT"
         ~doc:
           "Report format: $(b,text) (deterministic table per input) or \
            $(b,sarif) (one SARIF 2.1 log for the whole invocation).")

let max_severity_arg =
  let level_conv =
    Arg.enum
      [
        ("none", None);
        ("info", Some Tdfa_lint.Lint.Info);
        ("warn", Some Tdfa_lint.Lint.Warn);
        ("error", Some Tdfa_lint.Lint.Error);
      ]
  in
  Arg.(value & opt level_conv (Some Tdfa_lint.Lint.Warn)
       & info [ "max-severity" ] ~docv:"LEVEL"
           ~doc:
             "Exit-code mapping: exit 1 when any finding is stricter than \
              $(docv) (default $(b,warn), i.e. only error findings fail \
              the run; $(b,none) tolerates no findings at all, $(b,error) \
              always exits 0).")

let list_rules_arg =
  Arg.(value & flag
       & info [ "list-rules" ]
           ~doc:"List the registered rules with their default severities.")

(* ------------------------------------------------------------------ *)
(* Observability                                                        *)
(* ------------------------------------------------------------------ *)

type trace_format = Json_lines | Chrome

type obs_request = {
  trace : string option;
  format : trace_format;
  metrics : bool;
}

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:
           "Write a structured trace of the run (spans, fixpoint \
            telemetry, cache and pool decisions) to $(docv), in the \
            format selected by $(b,--trace-format).")

let trace_format_arg =
  let fmt_conv =
    Arg.enum [ ("json", Json_lines); ("chrome", Chrome) ]
  in
  Arg.(value & opt fmt_conv Json_lines
       & info [ "trace-format" ] ~docv:"FORMAT"
           ~doc:
             "Trace encoding: $(b,json) (one JSON object per event, one \
              per line) or $(b,chrome) (a chrome://tracing-loadable \
              trace_event array).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:
             "Print an end-of-run metrics table (counters, gauges, \
              histograms, sorted by name) to stderr.")

let obs_term =
  let make trace format metrics = { trace; format; metrics } in
  Term.(const make $ trace_arg $ trace_format_arg $ metrics_arg)

(* Build the sink a request asks for, hand it to [k], and tear it down
   afterwards: metrics table first (stderr), then flush/terminate the
   trace file. Commands must return (not [exit]) for teardown to run —
   compute the exit code inside and [exit] after. *)
let with_obs req k =
  let sink =
    match req.trace with
    | Some path -> (
      match req.format with
      | Json_lines -> Tdfa.Obs.json_file ~path
      | Chrome -> Tdfa.Obs.chrome_trace ~path)
    | None -> if req.metrics then Tdfa.Obs.metrics_only () else Tdfa.Obs.null
  in
  Fun.protect
    ~finally:(fun () ->
      if req.metrics then Tdfa.Obs.print_metrics sink;
      Tdfa.Obs.close sink)
    (fun () -> k sink)
