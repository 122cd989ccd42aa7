open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_obs

(* ------------------------------------------------------------------ *)
(* Severity                                                             *)
(* ------------------------------------------------------------------ *)

type severity = Info | Warn | Error

let severity_name = function
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity_rank = function Info -> 0 | Warn -> 1 | Error -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

(* ------------------------------------------------------------------ *)
(* Findings                                                             *)
(* ------------------------------------------------------------------ *)

type finding = {
  rule_id : string;
  severity : severity;
  func_name : string;
  label : Label.t option;
  index : int option;
  message : string;
  hint : string option;
}

let location f =
  match (f.label, f.index) with
  | Some l, Some i ->
    Printf.sprintf "%s/%s/instr %d" f.func_name (Label.to_string l) i
  | Some l, None -> Printf.sprintf "%s/%s" f.func_name (Label.to_string l)
  | None, _ -> f.func_name

let to_string f =
  Printf.sprintf "%s [%s] %s: %s%s" (severity_name f.severity) f.rule_id
    (location f) f.message
    (match f.hint with Some h -> Printf.sprintf " (hint: %s)" h | None -> "")

let to_check_diagnostic f =
  {
    Tdfa_verify.Check.rule = "lint/" ^ f.rule_id;
    label = f.label;
    index = f.index;
    violation = f.message;
  }

(* ------------------------------------------------------------------ *)
(* Context                                                              *)
(* ------------------------------------------------------------------ *)

type ctx = {
  func : Func.t;
  layout : Layout.t;
  live : Liveness.t;
  loops : Loops.t;
  dom : Dominators.t;
  ud : Use_def.t;
  consts : Const_prop.t;
  assignment : Assignment.t;
  predicted : bool;
  bounds : Tdfa_absint.Absint.t Lazy.t;
}

let make_ctx ?(obs = Obs.null) ?assignment ~layout func =
  let assignment, predicted =
    match assignment with
    | Some a -> (a, false)
    | None -> (Tdfa_core.Placement.predict func layout, true)
  in
  let bounds =
    lazy
      (Tdfa.Driver.predict
         { (Tdfa.Driver.default ~layout) with obs }
         (Tdfa.Driver.Assigned (func, assignment)))
  in
  {
    func;
    layout;
    live = Liveness.analyze func;
    loops = Loops.analyze func;
    dom = Dominators.analyze func;
    ud = Use_def.build func;
    consts = Const_prop.analyze func;
    assignment;
    predicted;
    bounds;
  }

(* ------------------------------------------------------------------ *)
(* Rules                                                                *)
(* ------------------------------------------------------------------ *)

type rule = {
  id : string;
  summary : string;
  default_severity : severity;
  check : ctx -> finding list;
}

let finding ctx ~rule_id ~severity ?label ?index ?hint message =
  {
    rule_id;
    severity;
    func_name = ctx.func.Func.name;
    label;
    index;
    message;
    hint;
  }

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  only : string list option;
  disabled : string list;
  overrides : (string * severity) list;
}

let default_config = { only = None; disabled = []; overrides = [] }

let known_id known id = List.exists (fun r -> r.id = id) known

let check_known known id =
  if known_id known id then Ok id
  else Stdlib.Error (Printf.sprintf "unknown lint rule %s (try --list-rules)" id)

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let config_of_spec ?(base = default_config) ?rules ~severities ~known () =
  let* base =
    match rules with
    | None -> Ok base
    | Some spec ->
      let tokens =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let offs, ons =
        List.partition (fun t -> String.length t > 0 && t.[0] = '-') tokens
      in
      let offs = List.map (fun t -> String.sub t 1 (String.length t - 1)) offs in
      let* ons = collect (check_known known) ons in
      let* offs = collect (check_known known) offs in
      Ok
        {
          base with
          only = (if ons = [] then base.only else Some ons);
          disabled = base.disabled @ offs;
        }
  in
  let* overrides =
    collect
      (fun binding ->
        match String.index_opt binding '=' with
        | None ->
          Stdlib.Error
            (Printf.sprintf "malformed severity override %s (want rule=level)"
               binding)
        | Some i ->
          let id = String.trim (String.sub binding 0 i) in
          let lev =
            String.trim
              (String.sub binding (i + 1) (String.length binding - i - 1))
          in
          let* id = check_known known id in
          (match severity_of_string lev with
           | Some s -> Ok (id, s)
           | None ->
             Stdlib.Error
               (Printf.sprintf "unknown severity %s (info, warn or error)" lev)))
      severities
  in
  Ok { base with overrides = base.overrides @ overrides }

let config_of_file ?(base = default_config) ~known path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Stdlib.Error msg
  | lines ->
    let significant =
      List.filter
        (fun line ->
          let line = String.trim line in
          line <> "" && line.[0] <> '#')
        lines
    in
    List.fold_left
      (fun acc line ->
        let* cfg = acc in
        let line = String.trim line in
        match String.index_opt line '=' with
        | None ->
          Stdlib.Error
            (Printf.sprintf "%s: malformed line %S (want rule = level|off)"
               path line)
        | Some i ->
          let id = String.trim (String.sub line 0 i) in
          let lev =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          let* id = check_known known id in
          (match lev with
           | "off" -> Ok { cfg with disabled = cfg.disabled @ [ id ] }
           | _ -> (
             match severity_of_string lev with
             | Some s -> Ok { cfg with overrides = cfg.overrides @ [ (id, s) ] }
             | None ->
               Stdlib.Error
                 (Printf.sprintf "%s: unknown severity %s for rule %s" path lev
                    id))))
      (Ok base) significant

let selected config rules =
  let rules =
    match config.only with
    | None -> rules
    | Some ids -> List.filter (fun r -> List.mem r.id ids) rules
  in
  List.filter (fun r -> not (List.mem r.id config.disabled)) rules

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic order: errors first, then rule id, then program order
   (block position in the function, instruction index), then message. *)
let sort_findings ctx findings =
  let block_pos =
    let tbl = Label.Tbl.create 16 in
    List.iteri
      (fun i (b : Block.t) -> Label.Tbl.replace tbl b.Block.label i)
      ctx.func.Func.blocks;
    fun l ->
      match l with
      | None -> -1
      | Some l -> (
        match Label.Tbl.find_opt tbl l with Some i -> i | None -> max_int)
  in
  List.sort
    (fun a b ->
      let c = compare (severity_rank b.severity) (severity_rank a.severity) in
      if c <> 0 then c
      else
        let c = compare a.rule_id b.rule_id in
        if c <> 0 then c
        else
          let c = compare (block_pos a.label) (block_pos b.label) in
          if c <> 0 then c
          else
            let c = compare a.index b.index in
            if c <> 0 then c else compare a.message b.message)
    findings

let run ?(obs = Obs.null) ?(config = default_config) rules ctx =
  Obs.span obs "lint.func"
    ~args:[ ("func", Obs.Str ctx.func.Func.name) ]
    (fun () ->
      let rules = selected config rules in
      let findings =
        List.concat_map
          (fun r ->
            Obs.span obs "lint.rule"
              ~args:[ ("rule", Obs.Str r.id) ]
              (fun () ->
                Obs.incr obs "lint.rules_run";
                let fs = r.check ctx in
                let fs =
                  match List.assoc_opt r.id config.overrides with
                  | None -> fs
                  | Some s -> List.map (fun f -> { f with severity = s }) fs
                in
                if fs <> [] then begin
                  Obs.incr obs ~by:(List.length fs) "lint.findings";
                  Obs.incr obs ~by:(List.length fs) ("lint.findings." ^ r.id)
                end;
                fs))
          rules
      in
      sort_findings ctx findings)

let exceeds ~max findings =
  List.exists
    (fun f ->
      match max with
      | None -> true
      | Some m -> compare_severity f.severity m > 0)
    findings

let count sev findings =
  List.length (List.filter (fun f -> f.severity = sev) findings)
