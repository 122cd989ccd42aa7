open Tdfa_ir
open Tdfa_floorplan
open Tdfa_core
open Tdfa_obs

type stats = {
  samples : int;
  windows : int;
  cells_touched : int;
  reads : int;
  writes : int;
  duration_us : int;
}

type t = {
  func : Func.t;
  entry : Label.t;
  events : Access.event list array;  (* one slot per window *)
  stats : stats;
}

let func t = t.func
let stats t = t.stats

let accesses t label index =
  if Label.equal label t.entry && index >= 0 && index < Array.length t.events
  then t.events.(index)
  else []

let driver_input t = Tdfa.Driver.Trace { func = t.func; accesses = accesses t }

let stream_id ?(window_us = 1000) ~policy ~cells (trace : Sample.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "tdfa-trace-stream-1\n";
  Buffer.add_string buf (Mapping.policy_name policy);
  Buffer.add_string buf (Printf.sprintf "|%d|%d\n" cells window_us);
  List.iter
    (fun (s : Sample.sample) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %c %d\n" s.Sample.t_us
           (match s.Sample.kind with Access.Read -> 'R' | Access.Write -> 'W')
           s.Sample.addr))
    trace.Sample.samples;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Aggregate one window's samples per (cell, kind), keeping first-touch
   order so the event list is a deterministic function of the stream. *)
let aggregate_window samples mapping =
  let counts = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Sample.sample) ->
      let cell = Mapping.cell_of_addr mapping s.Sample.addr in
      let key = (cell, s.Sample.kind) in
      match Hashtbl.find_opt counts key with
      | Some n -> Hashtbl.replace counts key (n + 1)
      | None ->
          Hashtbl.add counts key 1;
          order := key :: !order)
    samples;
  List.rev_map
    (fun (cell, kind) ->
      Access.event ~weight:(float_of_int (Hashtbl.find counts (cell, kind)))
        cell kind)
    !order

let max_windows = 1 lsl 18
let max_window_cells = 1 lsl 22

let check ?(window_us = 1000) ~cells (trace : Sample.t) =
  let ( let* ) = Result.bind in
  let* () =
    if window_us <= 0 then Error "window_us must be positive" else Ok ()
  in
  let* () = Mapping.check_cells cells in
  let spans = Sample.duration_us trace / window_us in
  if spans >= max_windows then
    Error
      (Printf.sprintf
         "the trace spans more than %d windows of %d us (widen the window)"
         max_windows window_us)
  else
    let windows = spans + 1 in
    if windows * cells > max_window_cells then
      Error
        (Printf.sprintf
           "%d windows x %d cells exceeds the budget of %d thermal points \
            (fewer cells or a wider window)"
           windows cells max_window_cells)
    else Ok ()

let compile ?(obs = Obs.null) ?(window_us = 1000) ~policy ~cells
    (trace : Sample.t) =
  (match check ~window_us ~cells trace with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Compile.compile: " ^ msg));
  let mapping =
    Obs.span obs "trace.map"
      ~args:
        [
          ("policy", Obs.Str (Mapping.policy_name policy));
          ("cells", Obs.Int cells);
        ]
      (fun () -> Mapping.build ~policy ~cells trace)
  in
  let duration_us = Sample.duration_us trace in
  let windows = (duration_us / window_us) + 1 in
  let events =
    Obs.span obs "trace.window"
      ~args:[ ("windows", Obs.Int windows); ("window_us", Obs.Int window_us) ]
      (fun () ->
        let per_window = Array.make windows [] in
        List.iter
          (fun (s : Sample.sample) ->
            let w = s.Sample.t_us / window_us in
            per_window.(w) <- s :: per_window.(w))
          trace.Sample.samples;
        Array.map (fun ss -> aggregate_window (List.rev ss) mapping) per_window)
  in
  let samples = List.length trace.Sample.samples in
  Obs.incr obs ~by:samples "trace.samples";
  Obs.incr obs ~by:windows "trace.windows";
  let touched = Hashtbl.create 16 in
  let reads = ref 0 and writes = ref 0 in
  List.iter
    (fun (s : Sample.sample) ->
      Hashtbl.replace touched (Mapping.cell_of_addr mapping s.Sample.addr) ();
      match s.Sample.kind with
      | Access.Read -> incr reads
      | Access.Write -> incr writes)
    trace.Sample.samples;
  let b = Builder.create ~name:trace.Sample.name ~params:[] in
  for _ = 1 to windows do
    Builder.nop b
  done;
  Builder.ret b None;
  let func = Builder.finish b in
  {
    func;
    entry = Func.entry_label func;
    events;
    stats =
      {
        samples;
        windows;
        cells_touched = Hashtbl.length touched;
        reads = !reads;
        writes = !writes;
        duration_us;
      };
  }

let cell_var = Printf.sprintf "cell%d"

let cell_of_var v =
  let s = Var.to_string v in
  let prefix = "cell" in
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    int_of_string_opt (String.sub s plen (String.length s - plen))
  else None

let exec_trace t =
  let events = ref [] in
  Array.iteri
    (fun w evs ->
      List.iter
        (fun (e : Access.event) ->
          let kind =
            match e.Access.kind with
            | Access.Read -> Tdfa_exec.Trace.Read
            | Access.Write -> Tdfa_exec.Trace.Write
          in
          let var = Var.of_string (cell_var e.Access.cell) in
          for _ = 1 to int_of_float e.Access.weight do
            events := { Tdfa_exec.Trace.cycle = w; var; kind } :: !events
          done)
        evs)
    t.events;
  ( Tdfa_exec.Trace.of_events ~cycles:(Array.length t.events)
      (List.rev !events),
    cell_of_var )

let layout_of_cells cells =
  (match Mapping.check_cells cells with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Compile.layout_of_cells: " ^ msg));
  let rec best r = if cells mod r = 0 then r else best (r - 1) in
  let r0 = int_of_float (sqrt (float_of_int cells)) in
  let r0 = if (r0 + 1) * (r0 + 1) <= cells then r0 + 1 else r0 in
  let rows = best r0 in
  Layout.make ~rows ~cols:(cells / rows) ()
