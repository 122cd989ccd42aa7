open Tdfa_ir
open Tdfa_dataflow
open Tdfa_obs

type violation_policy = Fail | Warn | Degrade

let policy_name = function
  | Fail -> "fail"
  | Warn -> "warn"
  | Degrade -> "degrade"

type checks = {
  policy : violation_policy;
  verify : Func.t -> Tdfa_verify.Check.diagnostic list;
}

let checks ?(verify = Tdfa_verify.Check.func) policy = { policy; verify }

exception
  Verification_failed of {
    pass : string;
    diagnostics : Tdfa_verify.Check.diagnostic list;
  }

let () =
  Printexc.register_printer (function
    | Verification_failed { pass; diagnostics } ->
      Some
        (Printf.sprintf "Pipeline.Verification_failed(%s: %s)" pass
           (String.concat "; "
              (List.map Tdfa_verify.Check.to_string diagnostics)))
    | _ -> None)

type status = Applied | Warned | Skipped

type step = {
  pass : string;
  detail : string;
  cycles_after : float;
  status : status;
  diagnostics : Tdfa_verify.Check.diagnostic list;
}

type t = { func : Func.t; steps : step list }

let static_cycles func =
  let loops = Loops.analyze func in
  List.fold_left
    (fun acc (b : Block.t) ->
      acc
      +. (Loops.frequency loops b.Block.label
          *. float_of_int (Block.num_instrs b + 1)))
    0.0 func.Func.blocks

let step ?(status = Applied) ?(diagnostics = []) ~pass ~detail func =
  { pass; detail; cycles_after = static_cycles func; status; diagnostics }

let start func = { func; steps = [ step ~pass:"original" ~detail:"" func ] }

let status_name = function
  | Applied -> "applied"
  | Warned -> "warned"
  | Skipped -> "skipped"

let apply ?(obs = Obs.null) ?checks t ~name ~detail f =
  let finish t' =
    (* One record per pass boundary: outcome, diagnostics count and the
       cycle estimate the cost accounting just computed. *)
    (match t'.steps with
     | [] -> ()
     | steps ->
       let s = List.nth steps (List.length steps - 1) in
       Obs.incr obs "pipeline.passes";
       if s.status = Skipped then Obs.incr obs "pipeline.skipped";
       if Obs.tracing obs then
         Obs.instant obs "pipeline.pass"
           ~args:
             [
               ("pass", Obs.Str s.pass);
               ("detail", Obs.Str s.detail);
               ("status", Obs.Str (status_name s.status));
               ("violations", Obs.Int (List.length s.diagnostics));
               ("cycles_after", Obs.Float s.cycles_after);
             ]);
    t'
  in
  (* Record the pass boundary, continuing from [func]. *)
  let push ?status ?diagnostics func =
    finish
      {
        func;
        steps = t.steps @ [ step ?status ?diagnostics ~pass:name ~detail func ];
      }
  in
  Obs.span obs "pipeline.apply"
    ~args:[ ("pass", Obs.Str name) ]
    (fun () ->
      let func = f t.func in
      match checks with
      | None -> push func
      | Some { policy; verify } -> (
        match Obs.span obs "pipeline.verify"
                ~args:[ ("pass", Obs.Str name) ]
                (fun () -> verify func)
        with
        | [] -> push func
        | diagnostics -> (
          match policy with
          | Fail -> raise (Verification_failed { pass = name; diagnostics })
          | Warn -> push ~status:Warned ~diagnostics func
          | Degrade ->
            (* Discard the pass: continue from the pre-pass IR, keeping the
               skip (and why) in the step log. *)
            push ~status:Skipped ~diagnostics t.func)))

let skipped_passes t =
  List.filter_map
    (fun s -> if s.status = Skipped then Some s.pass else None)
    t.steps

let overhead_percent t =
  match t.steps with
  | [] -> 0.0
  | { cycles_after = first; _ } :: _ ->
    let last = static_cycles t.func in
    (last -. first) /. first *. 100.0
