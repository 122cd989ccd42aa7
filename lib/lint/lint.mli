(** Rule-based static diagnostics over the IR — the cheap front half of
    the analysis stack.

    The paper's central claim is that thermal behaviour of the register
    file is statically predictable from data-flow facts: hot spots
    emerge from assignment patterns (Fig. 1) and break down above 50 %
    register pressure. The lint engine exploits exactly that: it
    composes the classic analyses of {!Tdfa_dataflow} (liveness, loops,
    dominators, use/def, constant propagation) into thermal and hygiene
    rules {e without running the thermal fixpoint}, so thermally risky
    code can be flagged before anyone pays for the expensive analysis —
    lint first, run Fig. 2 only on flagged functions. The two
    certified-bound rules are the exception: they read the context's
    [bounds], which run the fixpoint once on first use.

    The module is deliberately mechanism-only: rule implementations
    live in {!Rules}, rendering in {!Render} (text) and {!Sarif}
    (SARIF 2.1). Findings are ordinary values, ordered
    deterministically, so every renderer is reproducible
    byte-for-byte. *)

open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_obs

(** {1 Severity} *)

type severity = Info | Warn | Error

val severity_name : severity -> string
(** ["info"], ["warn"], ["error"]. *)

val severity_of_string : string -> severity option

val compare_severity : severity -> severity -> int
(** Orders by gravity: [Info < Warn < Error]. *)

(** {1 Findings} *)

type finding = {
  rule_id : string;
  severity : severity;  (** effective severity, overrides applied *)
  func_name : string;
  label : Label.t option;  (** offending block, when attributable *)
  index : int option;  (** instruction index within the block *)
  message : string;
  hint : string option;  (** suggested fix, e.g. ["split the range"] *)
}

val location : finding -> string
(** ["func"], ["func/block"] or ["func/block/instr N"]. *)

val to_string : finding -> string
(** One line: ["severity [rule] location: message (hint: ...)"]. *)

val to_check_diagnostic : finding -> Tdfa_verify.Check.diagnostic
(** Bridge into the verifier vocabulary (rule ["lint/<id>"]), so lint
    findings can flow through {!Tdfa_optim.Pipeline}'s existing
    fail/warn/degrade machinery unchanged. *)

(** {1 Analysis context}

    Every data-flow fact a rule may consult, computed once per function
    and shared by all rules — the lint engine never runs the same
    analysis twice. *)

type ctx = {
  func : Func.t;
  layout : Layout.t;
  live : Liveness.t;
  loops : Loops.t;
  dom : Dominators.t;
  ud : Use_def.t;
  consts : Const_prop.t;
  assignment : Assignment.t;
      (** a real post-RA assignment when given, otherwise the
          predictive placement of {!Tdfa_core.Placement} (§4's pre-RA
          mode) *)
  predicted : bool;  (** [true] iff [assignment] is predictive *)
  bounds : Tdfa_absint.Absint.t Lazy.t;
      (** certified [lo, hi] bounds under [assignment] and the default
          driver configuration, computed on first use and shared by the
          rules that read them *)
}

val make_ctx :
  ?obs:Obs.sink -> ?assignment:Assignment.t -> layout:Layout.t -> Func.t -> ctx
(** [obs] (default {!Obs.null}) receives the spans of the [bounds]
    computation when a rule forces it. *)

(** {1 Rules} *)

type rule = {
  id : string;  (** stable kebab-case identifier *)
  summary : string;  (** one line for [--list-rules] and SARIF *)
  default_severity : severity;
  check : ctx -> finding list;
}

val finding :
  ctx ->
  rule_id:string ->
  severity:severity ->
  ?label:Label.t ->
  ?index:int ->
  ?hint:string ->
  string ->
  finding
(** Constructor used by rule implementations ([func_name] comes from
    the context). *)

(** {1 Configuration} *)

type config = {
  only : string list option;
      (** [Some ids]: run exactly these rules; [None]: all registered *)
  disabled : string list;  (** removed after [only] is applied *)
  overrides : (string * severity) list;
      (** [rule, severity]: replace the rule's default severity *)
}

val default_config : config
(** Every rule enabled at its default severity. *)

val config_of_spec :
  ?base:config ->
  ?rules:string ->
  severities:string list ->
  known:rule list ->
  unit ->
  (config, string) result
(** CLI-facing parser. [rules] is a comma-separated list of rule ids;
    a ["-"] prefix disables the rule, and when at least one id appears
    without a prefix the selection becomes exclusive ([only]).
    [severities] are ["rule=info|warn|error"] bindings. Unknown rule
    ids and malformed bindings are reported as [Error]. *)

val config_of_file :
  ?base:config -> known:rule list -> string -> (config, string) result
(** Lint configuration file: one ["rule = info|warn|error|off"] binding
    per line, [#] comments and blank lines ignored. *)

val selected : config -> rule list -> rule list
(** The rules [run] will execute, in registry order. *)

(** {1 Engine} *)

val run : ?obs:Obs.sink -> ?config:config -> rule list -> ctx -> finding list
(** Run every selected rule over the context and return the findings
    ordered deterministically: errors first, then by rule id, block
    position, instruction index and message. [obs] (default
    {!Obs.null}) receives a [lint.func] span wrapping the function, one
    [lint.rule] span per executed rule, and the [lint.rules_run],
    [lint.findings] and [lint.findings.<rule>] counters. *)

val exceeds : max:severity option -> finding list -> bool
(** Exit-code policy of the CLI and the pipeline gate: does any finding
    exceed the tolerated maximum? [Some s] tolerates findings of
    severity [s] and below; [None] tolerates nothing. *)

val count : severity -> finding list -> int
