open Tdfa_regalloc

type op =
  | Analyze
  | Reanalyze
  | Predict
  | Place
  | Lint
  | Trace
  | Status
  | Shutdown

let op_name = function
  | Analyze -> "analyze"
  | Reanalyze -> "reanalyze"
  | Predict -> "predict"
  | Place -> "place"
  | Lint -> "lint"
  | Trace -> "trace"
  | Status -> "status"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "analyze" -> Some Analyze
  | "reanalyze" -> Some Reanalyze
  | "predict" -> Some Predict
  | "place" -> Some Place
  | "lint" -> Some Lint
  | "trace" -> Some Trace
  | "status" -> Some Status
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  id : string;
  op : op;
  kernel : string option;
  ir : string option;
  policy : Policy.t;
  granularity : int;
  delta : float;
  pre_ra : bool;
  recover : bool;
  incremental : bool;
  post_ra : bool;
  trace : string option;
  map : Tdfa_trace.Mapping.policy;
  cells : int;
  window_ms : float;
  deadline_ms : float option;
  kernels : string option;
      (** place op: comma-separated kernel names; [None] = all built-ins *)
  cores : string;  (** place op: chip geometry, ROWSxCOLS *)
  place : string;  (** place op: allocation policy name *)
  sa_iters : int;  (** place op: annealing iterations *)
  seed : int;  (** place op: annealing seed *)
}

let request_of_json j =
  match Json.str_member "op" j with
  | None -> Error "missing \"op\""
  | Some opname -> (
    match op_of_string opname with
    | None ->
      Error
        (Printf.sprintf
           "unknown op %S (analyze, reanalyze, predict, place, lint, trace, \
            status, shutdown)"
           opname)
    | Some op -> (
      let id = Option.value ~default:"" (Json.str_member "id" j) in
      let kernel = Json.str_member "kernel" j in
      let ir = Json.str_member "ir" j in
      let policy_name =
        Option.value ~default:"first-fit" (Json.str_member "policy" j)
      in
      match Policy.of_string policy_name with
      | None -> Error (Printf.sprintf "unknown policy %S" policy_name)
      | Some policy -> (
        let map_name =
          Option.value ~default:"direct" (Json.str_member "map" j)
        in
        match Tdfa_trace.Mapping.policy_of_string map_name with
        | Error msg -> Error msg
        | Ok map ->
          let b key default =
            Option.value ~default (Json.bool_member key j)
          in
          let req =
            {
              id;
              op;
              kernel;
              ir;
              policy;
              granularity =
                Option.value ~default:1 (Json.int_member "granularity" j);
              delta =
                Option.value ~default:0.05 (Json.float_member "delta" j);
              pre_ra = b "pre_ra" false;
              recover = b "recover" false;
              incremental = b "incremental" false;
              post_ra = b "post_ra" false;
              trace = Json.str_member "trace" j;
              map;
              cells = Option.value ~default:64 (Json.int_member "cells" j);
              window_ms =
                Option.value ~default:1.0 (Json.float_member "window_ms" j);
              deadline_ms = Json.float_member "deadline_ms" j;
              kernels = Json.str_member "kernels" j;
              cores =
                Option.value ~default:"2x2" (Json.str_member "cores" j);
              place =
                Option.value ~default:"greedy" (Json.str_member "place" j);
              sa_iters =
                Option.value ~default:2000 (Json.int_member "sa_iters" j);
              seed = Option.value ~default:0 (Json.int_member "seed" j);
            }
          in
          let ( let* ) = Result.bind in
          let* () = Tdfa.Driver.check_granularity req.granularity in
          let* () = Tdfa.Driver.check_delta req.delta in
          (* Before the inline trace is even parsed: an oversized cell
             count must cost nothing. *)
          let* () =
            if op = Trace then Tdfa_trace.Mapping.check_cells req.cells
            else Ok ()
          in
          Ok req)))

let request_of_line line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "bad frame: %s" msg)
  | Ok j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let ok_response ?(extra = []) ~id ~op ~output () =
  Json.Obj
    ([
       ("id", Json.Str id);
       ("ok", Json.Bool true);
       ("op", Json.Str (op_name op));
       ("output", Json.Str output);
     ]
    @ extra)

type error_kind =
  | Bad_request  (** unparseable frame or unusable input *)
  | Deadline  (** the per-request deadline expired mid-analysis *)
  | Transient_exhausted  (** retries with backoff did not cure it *)
  | Invalid_ir  (** the verifier rejected the program *)
  | Session_crashed  (** handler crashed; session quarantined+rebuilt *)
  | Failed  (** every degradation rung failed *)

let error_kind_name = function
  | Bad_request -> "bad-request"
  | Deadline -> "deadline"
  | Transient_exhausted -> "transient"
  | Invalid_ir -> "invalid-ir"
  | Session_crashed -> "session-crash"
  | Failed -> "failed"

let error_response ?(extra = []) ~id ~kind ~message () =
  Json.Obj
    ([
       ("id", Json.Str id);
       ("ok", Json.Bool false);
       ("kind", Json.Str (error_kind_name kind));
       ("error", Json.Str message);
     ]
    @ extra)
