open Tdfa_ir
open Tdfa_obs
module Fault = Tdfa_verify.Fault

exception Injected_crash

type config = {
  deadline_ms : float option;
  backoff : Robust.backoff;
  faults : Fault.Plan.t;
  obs : Obs.sink;
  max_log : int;
}

let default_config =
  {
    deadline_ms = None;
    backoff = Robust.default_backoff;
    faults = Fault.Plan.none;
    obs = Obs.null;
    max_log = 8;
  }

type t = {
  cfg : config;
  injector : Fault.Plan.injector;
  mutable sessions : int;
  mutable served : int;
  mutable crashes : int;
  mutable degraded : int;
  mutable shutting_down : bool;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    injector = Fault.Plan.injector config.faults;
    sessions = 0;
    served = 0;
    crashes = 0;
    degraded = 0;
    shutting_down = false;
  }

type outcome = Reply of Json.t | Dropped | Shutdown_now of Json.t

let fires t site = Fault.Plan.fires t.injector site

(* ------------------------------------------------------------------ *)
(* Program resolution                                                   *)
(* ------------------------------------------------------------------ *)

(* kernel > inline IR > the session's resident program. The resolved
   program becomes resident so a later request can omit it. *)
let resolve t session (req : Protocol.request) =
  let keep f =
    session.Session.func <- Some f;
    Ok f
  in
  match (req.Protocol.kernel, req.Protocol.ir) with
  | Some _, Some _ -> Error "kernel and ir are mutually exclusive"
  | Some name, None -> (
    match Tdfa_workload.Kernels.lookup name with
    | Ok f ->
      (* A new program invalidates the resident prior. *)
      (match session.Session.func with
       | Some old when not (String.equal old.Func.name f.Func.name) ->
         session.Session.prior <- None
       | _ -> ());
      keep f
    | Error _ as e -> e)
  | None, Some source -> (
    match Parser.parse_func source with
    | f ->
      session.Session.prior <- None;
      keep f
    | exception Parser.Error msg -> Error ("parse error: " ^ msg))
  | None, None -> (
    match session.Session.func with
    | Some f -> Ok f
    | None ->
      ignore t;
      Error "no resident program (send kernel or ir first)")

(* ------------------------------------------------------------------ *)
(* Work handlers                                                        *)
(* ------------------------------------------------------------------ *)

(* The request's deadline (its own [deadline_ms], else the daemon's),
   started now, as a cancellation token. *)
let cancel_token t (req : Protocol.request) =
  let ms =
    match req.Protocol.deadline_ms with None -> t.cfg.deadline_ms | ms -> ms
  in
  Option.map (fun ms -> Robust.cancel_of (Robust.deadline_after ~ms)) ms

let mode_extra (r : Tdfa.Driver.result) =
  match r.Tdfa.Driver.incremental with
  | None -> []
  | Some inc ->
    [
      ( "mode",
        Json.Str
          (Tdfa_core.Incremental.mode_name inc.Tdfa_core.Incremental.mode) );
    ]

let handle_work t session (req : Protocol.request) ~rebuilding =
  let obs = t.cfg.obs in
  match resolve t session req with
  | Error msg ->
    Reply
      (Protocol.error_response ~id:req.Protocol.id
         ~kind:Protocol.Bad_request ~message:msg ())
  | Ok resident -> (
    (* Chaos: a broken-IR injection mutates a copy for this request
       only; the verification gate below must reject it. *)
    let f, injected_broken =
      if (not rebuilding) && fires t Fault.Plan.Broken_ir then begin
        Obs.incr obs "serve.injected.broken_ir";
        match
          Fault.inject ~seed:t.cfg.faults.Fault.Plan.seed
            ~kind:Fault.Drop_def resident
        with
        | Some m -> (m.Fault.func, true)
        | None -> (resident, false)
      end
      else (resident, false)
    in
    ignore injected_broken;
    match Tdfa_verify.Check.func f with
    | _ :: _ as ds ->
      Obs.incr obs "serve.rejected_ir";
      Reply
        (Protocol.error_response ~id:req.Protocol.id
           ~kind:Protocol.Invalid_ir
           ~message:
             (Printf.sprintf "IR verification failed (%d violations), first: %s"
                (List.length ds)
                (Tdfa_verify.Check.to_string (List.hd ds)))
           ())
    | [] ->
      (* Chaos: poison the resident prior before a reanalyze; the
         incremental integrity digest must catch it and fall back to a
         cold run with identical output. *)
      (if
         (not rebuilding)
         && req.Protocol.op = Protocol.Reanalyze
         && session.Session.prior <> None
         && fires t Fault.Plan.Corrupt_recording
       then
         match session.Session.prior with
         | Some p ->
           Obs.incr obs "serve.injected.corrupt_recording";
           session.Session.prior <-
             Some
               (Fault.corrupt_recording ~seed:t.cfg.faults.Fault.Plan.seed p)
         | None -> ());
      let cancel = if rebuilding then None else cancel_token t req in
      let work ~degraded () =
        if (not rebuilding) && fires t Fault.Plan.Transient then begin
          Obs.incr obs "serve.injected.transient";
          raise (Robust.Transient "injected transient fault")
        end;
        if (not rebuilding) && fires t Fault.Plan.Session_crash then begin
          Obs.incr obs "serve.injected.session_crash";
          raise Injected_crash
        end;
        match req.Protocol.op with
        | Protocol.Lint ->
          (* Degraded rung: lint-minimal — no allocation, default
             policy, pre-RA context only. *)
          let out, findings =
            if degraded then
              Render.lint ~obs ~post_ra:false
                ~policy:Tdfa_regalloc.Policy.First_fit f
            else Render.lint ~obs ~post_ra:req.Protocol.post_ra
                ~policy:req.Protocol.policy f
          in
          (out, [ ("findings", Json.Int (List.length findings)) ])
        | Protocol.Analyze | Protocol.Reanalyze ->
          (* Degraded rung: cold — drop the resident prior and run the
             plain fixpoint. *)
          let incremental =
            (not degraded)
            && (req.Protocol.op = Protocol.Reanalyze
               || req.Protocol.incremental)
          in
          let prior =
            if incremental && req.Protocol.op = Protocol.Reanalyze then
              session.Session.prior
            else None
          in
          let out, r =
            Render.analyze ~obs ?cancel ?prior ~policy:req.Protocol.policy
              ~granularity:req.Protocol.granularity ~delta:req.Protocol.delta
              ~pre_ra:req.Protocol.pre_ra ~recover:req.Protocol.recover
              ~incremental f
          in
          (match r.Tdfa.Driver.incremental with
           | Some inc ->
             session.Session.prior <-
               Some inc.Tdfa_core.Incremental.prior
           | None -> ());
          (out, mode_extra r)
        | Protocol.Predict ->
          (* Certified bounds: one fixpoint plus about one certificate
             sweep. There is no cheaper rung to degrade to, so the
             request runs to completion. *)
          let out, b =
            Render.predict ~obs ~policy:req.Protocol.policy
              ~granularity:req.Protocol.granularity
              ~delta:req.Protocol.delta ~pre_ra:req.Protocol.pre_ra f
          in
          ( out,
            [
              ( "peak_lo_k",
                Json.Float b.Tdfa_absint.Absint.peak_lo_k );
              ( "peak_hi_k",
                Json.Float b.Tdfa_absint.Absint.peak_hi_k );
            ] )
        | Protocol.Trace | Protocol.Place | Protocol.Status
        | Protocol.Shutdown ->
          assert false
      in
      let respond ~degraded (out, extra) =
        let extra =
          if degraded then begin
            t.degraded <- t.degraded + 1;
            Obs.incr obs "serve.degraded";
            let rung =
              match req.Protocol.op with
              | Protocol.Lint -> "lint-minimal"
              | _ -> "cold"
            in
            ("degraded", Json.Str rung) :: extra
          end
          else extra
        in
        Reply
          (Protocol.ok_response ~extra ~id:req.Protocol.id
             ~op:req.Protocol.op ~output:out ())
      in
      let deadline_reply iterations =
        Obs.incr obs "serve.deadlines";
        Reply
          (Protocol.error_response ~id:req.Protocol.id
             ~kind:Protocol.Deadline
             ~message:
               (Printf.sprintf "deadline expired after %d fixpoint iterations"
                  iterations)
             ())
      in
      let seed =
        t.cfg.faults.Fault.Plan.seed + session.Session.served
      in
      (match
         Robust.retry ~obs ~seed t.cfg.backoff (fun ~attempt:_ ->
             work ~degraded:false ())
       with
       | res -> respond ~degraded:false res
       | exception Tdfa_core.Analysis.Cancelled { iterations } ->
         deadline_reply iterations
       | exception Robust.Transient msg ->
         Reply
           (Protocol.error_response ~id:req.Protocol.id
              ~kind:Protocol.Transient_exhausted ~message:msg ())
       | exception Injected_crash -> raise Injected_crash
       | exception _e1 -> (
         (* Degradation ladder: warm -> cold, lint -> lint-minimal. *)
         match work ~degraded:true () with
         | res -> respond ~degraded:true res
         | exception Tdfa_core.Analysis.Cancelled { iterations } ->
           deadline_reply iterations
         | exception Injected_crash -> raise Injected_crash
         | exception e2 ->
           Obs.incr obs "serve.failed";
           Reply
             (Protocol.error_response ~id:req.Protocol.id
                ~kind:Protocol.Failed
                ~message:(Printexc.to_string e2) ()))))

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let status_response t session (req : Protocol.request) =
  let output =
    Printf.sprintf "sessions %d, served %d, crashes %d, degraded %d\n"
      t.sessions t.served t.crashes t.degraded
  in
  Protocol.ok_response ~id:req.Protocol.id ~op:Protocol.Status ~output
    ~extra:
      [
        ("sessions", Json.Int t.sessions);
        ("served", Json.Int t.served);
        ("crashes", Json.Int t.crashes);
        ("degraded", Json.Int t.degraded);
        ("draws", Json.Int (Fault.Plan.draws t.injector));
        ("session_served", Json.Int session.Session.served);
        ("session_crashes", Json.Int session.Session.crashes);
        ("resident", Json.Bool (session.Session.func <> None));
        ( "log",
          Json.List
            (List.map
               (fun (r : Protocol.request) ->
                 Json.Str (Protocol.op_name r.Protocol.op))
               (Session.log_oldest_first session)) );
      ]
    ()

(* The stateless ops: the request's own inputs, once checked, give a
   render that runs under the request's deadline. Its text is the
   reply; a tripped deadline or a raise is a structured error. *)
let answer t (req : Protocol.request) render =
  let obs = t.cfg.obs in
  let error kind message =
    Reply (Protocol.error_response ~id:req.Protocol.id ~kind ~message ())
  in
  match render with
  | Error message -> error Protocol.Bad_request message
  | Ok render -> (
    match render (cancel_token t req) with
    | output ->
      Reply
        (Protocol.ok_response ~id:req.Protocol.id ~op:req.Protocol.op ~output ())
    | exception Tdfa_core.Analysis.Cancelled { iterations } ->
      Obs.incr obs "serve.deadlines";
      error Protocol.Deadline
        (Printf.sprintf "deadline expired after %d iterations" iterations)
    | exception e ->
      Obs.incr obs "serve.failed";
      error Protocol.Failed (Printexc.to_string e))

let ( let* ) = Result.bind

(* Trace replay: the sampled stream rides inline in the request (JSON
   escaping keeps it one frame line), so no session residency is
   involved — parse, compile, run, reply. The output is the exact text
   of the one-shot [tdfa trace] on the same stream. *)
let handle_trace t (req : Protocol.request) =
  answer t req
    (let* text =
       Option.to_result req.Protocol.trace
         ~none:"trace op needs a \"trace\" field (inline sample text)"
     in
     let* sample =
       Result.map_error (( ^ ) "trace parse error: ")
         (Tdfa_trace.Sample.parse ~obs:t.cfg.obs text)
     in
     let window_us = int_of_float (req.Protocol.window_ms *. 1000.0) in
     if window_us <= 0 then Error "window_ms must be at least 0.001"
     else
       let* () =
         Tdfa_trace.Compile.check ~window_us ~cells:req.Protocol.cells sample
       in
       Ok
         (fun cancel ->
           Render.trace ~obs:t.cfg.obs ?cancel ~window_us
             ~policy:req.Protocol.map ~cells:req.Protocol.cells
             ~granularity:req.Protocol.granularity ~delta:req.Protocol.delta
             ~recover:req.Protocol.recover sample))

(* Task placement: kernels ride by name in the request (no session
   residency — the task set is the input), and the shared renderer
   guarantees the reply is the exact text of the one-shot
   [tdfa place]. The deadline bounds the profile fixpoints and the
   annealer. *)
let handle_place t (req : Protocol.request) =
  answer t req
    (let* funcs =
       match req.Protocol.kernels with
       | None -> Ok (List.map snd Tdfa_workload.Kernels.all)
       | Some names -> Tdfa_workload.Kernels.lookup_list names
     in
     let* geometry = Tdfa_alloc.Chip.geometry_of_string req.Protocol.cores in
     let* place_policy =
       Tdfa_alloc.Place.policy_of_string ~seed:req.Protocol.seed
         ~iters:req.Protocol.sa_iters req.Protocol.place
     in
     Ok
       (fun cancel ->
         fst
           (Render.place ~obs:t.cfg.obs ?cancel ~policy:req.Protocol.policy
              ~granularity:req.Protocol.granularity ~delta:req.Protocol.delta
              ~geometry ~place_policy funcs)))

let handle_request t session ~rebuilding (req : Protocol.request) =
  Session.record session req;
  if not rebuilding then t.served <- t.served + 1;
  match req.Protocol.op with
  | Protocol.Status -> Reply (status_response t session req)
  | Protocol.Shutdown ->
    t.shutting_down <- true;
    Shutdown_now
      (Protocol.ok_response ~id:req.Protocol.id ~op:Protocol.Shutdown
         ~output:"shutting down\n" ())
  | Protocol.Trace -> handle_trace t req
  | Protocol.Place -> handle_place t req
  | Protocol.Analyze | Protocol.Reanalyze | Protocol.Predict | Protocol.Lint
    ->
    handle_work t session req ~rebuilding

(* Crash-only rebuild: reset the session and replay its request log
   through the normal path, outputs discarded. Construction and
   recovery are the same code. *)
let rebuild t session =
  let log = Session.log_oldest_first session in
  session.Session.log <- [];
  Obs.incr t.cfg.obs "serve.session.rebuilds";
  List.iter
    (fun req ->
      try ignore (handle_request t session ~rebuilding:true req)
      with _ -> ())
    log

(* Deterministic frame scrambling for the frame-garbage chaos site:
   shift every byte so the frame is still text but no longer JSON. *)
let scramble line =
  String.map
    (fun c -> Char.chr (((Char.code c + 13) land 0x7f) lor 0x20))
    line

let handle_line t session line =
  let obs = t.cfg.obs in
  Obs.incr obs "serve.requests";
  Obs.span obs "serve.request"
    ~args:[ ("session", Obs.Str session.Session.name) ]
    (fun () ->
      let line =
        if fires t Fault.Plan.Frame_garbage then begin
          Obs.incr obs "serve.injected.frame_garbage";
          scramble line
        end
        else line
      in
      (* The span and its arguments are built only for a tracing sink. *)
      let decoded =
        if not (Obs.tracing obs) then Protocol.request_of_line line
        else
          Obs.span obs "serve.frame"
            ~args:[ ("bytes", Obs.Int (String.length line)) ]
            (fun () -> Protocol.request_of_line line)
      in
      match decoded with
      | Error msg ->
        Obs.incr obs "serve.bad_frames";
        Reply
          (Protocol.error_response ~id:"" ~kind:Protocol.Bad_request
             ~message:msg ())
      | Ok req -> (
        if fires t Fault.Plan.Disconnect then begin
          Obs.incr obs "serve.injected.disconnect";
          Dropped
        end
        else
          match handle_request t session ~rebuilding:false req with
          | outcome -> outcome
          | exception e ->
            (* Crash-only: quarantine the poisoned session, rebuild it
               from its log (minus the crashing request), answer with a
               structured error — the process never goes down. *)
            Obs.incr obs "serve.session.crashes";
            t.crashes <- t.crashes + 1;
            session.Session.log <-
              List.filter (fun r -> r != req) session.Session.log;
            Session.quarantine session;
            rebuild t session;
            Reply
              (Protocol.error_response ~id:req.Protocol.id
                 ~kind:Protocol.Session_crashed
                 ~message:(Printexc.to_string e) ())))

(* ------------------------------------------------------------------ *)
(* The socket loop                                                      *)
(* ------------------------------------------------------------------ *)

module Framer = struct
  type frame = Line of string | Oversized

  type t = {
    buf : Buffer.t;  (** the current frame's bytes so far *)
    mutable discarding : bool;  (** inside an oversized frame *)
  }

  let max_frame = 64 * 1024 * 1024

  let create () = { buf = Buffer.create 4096; discarding = false }

  let rec newline bytes i len =
    if i >= len then None
    else if Bytes.get bytes i = '\n' then Some i
    else newline bytes (i + 1) len

  (* Each byte is scanned once: only the new bytes are searched for a
     newline, and only the unfinished frame is kept. *)
  let feed t bytes len =
    let frames = ref [] in
    let rec go start =
      match newline bytes start len with
      | Some i ->
        if t.discarding then t.discarding <- false
        else if Buffer.length t.buf + (i - start) > max_frame then
          frames := Oversized :: !frames
        else begin
          Buffer.add_subbytes t.buf bytes start (i - start);
          frames := Line (Buffer.contents t.buf) :: !frames
        end;
        Buffer.reset t.buf;
        go (i + 1)
      | None ->
        if not t.discarding then
          if Buffer.length t.buf + (len - start) > max_frame then begin
            Buffer.reset t.buf;
            t.discarding <- true;
            frames := Oversized :: !frames
          end
          else Buffer.add_subbytes t.buf bytes start (len - start)
    in
    go 0;
    List.rev !frames
end

type client = {
  fd : Unix.file_descr;
  session : Session.t;
  framer : Framer.t;
}

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let run ?(ready = fun () -> ()) t ~socket_path =
  let obs = t.cfg.obs in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket_path);
  Unix.listen srv 16;
  ready ();
  let clients = ref [] in
  let counter = ref 0 in
  let drop c =
    clients := List.filter (fun c' -> c'.fd != c.fd) !clients;
    t.sessions <- List.length !clients;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let accept () =
    match Unix.accept srv with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      incr counter;
      let session = Session.create ~max_log:t.cfg.max_log
          (Printf.sprintf "client-%d" !counter)
      in
      clients := { fd; session; framer = Framer.create () } :: !clients;
      t.sessions <- List.length !clients;
      Obs.incr obs "serve.accepts"
  in
  let respond c j =
    match write_all c.fd (Json.to_string j ^ "\n") with
    | () -> ()
    | exception Unix.Unix_error _ -> drop c
  in
  let serve_frame c = function
    | _ when t.shutting_down -> ()
    | Framer.Line line when String.trim line = "" -> ()
    | Framer.Line line -> (
      match handle_line t c.session line with
      | Reply j | Shutdown_now j -> respond c j
      | Dropped -> drop c)
    | Framer.Oversized ->
      Obs.incr obs "serve.oversized_frames";
      respond c
        (Protocol.error_response ~id:"" ~kind:Protocol.Bad_request
           ~message:
             (Printf.sprintf "frame exceeds %d bytes; discarded"
                Framer.max_frame)
           ())
  in
  let bytes = Bytes.create 65536 in
  let read c =
    match Unix.read c.fd bytes 0 65536 with
    | 0 -> drop c
    | n -> List.iter (serve_frame c) (Framer.feed c.framer bytes n)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      drop c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec loop () =
    if not t.shutting_down then begin
      let fds = srv :: List.map (fun c -> c.fd) !clients in
      (match Unix.select fds [] [] 1.0 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, _, _ ->
         List.iter
           (fun fd ->
             if fd == srv then accept ()
             else
               match
                 List.find_opt (fun c -> c.fd == fd) !clients
               with
               | Some c -> read c
               | None -> ())
           readable);
      loop ()
    end
  in
  loop ();
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Obs.incr obs "serve.shutdowns"
