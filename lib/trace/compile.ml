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
  reads : int array;  (* whole-stream accesses per cell *)
  writes : int array;
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

let max_windows = 1 lsl 18
let max_window_cells = 1 lsl 22

(* [check] that also returns the last timestamp. {!compile} windows the
   stream in one ordered pass, so a hand-built record whose samples go
   back in time is refused here rather than misfiled. *)
let checked_duration ~window_us ~cells (trace : Sample.t) =
  let ( let* ) = Result.bind in
  let* () =
    if window_us <= 0 then Error "window_us must be positive" else Ok ()
  in
  let* () = Mapping.check_cells cells in
  let rec last prev = function
    | [] -> Ok prev
    | (s : Sample.sample) :: rest ->
        if s.Sample.t_us < prev then Error "samples are out of time order"
        else last s.Sample.t_us rest
  in
  let* duration_us = last 0 trace.Sample.samples in
  let spans = duration_us / window_us in
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
    else Ok duration_us

let check ?(window_us = 1000) ~cells trace =
  Result.map ignore (checked_duration ~window_us ~cells trace)

let compile ?(obs = Obs.null) ?(window_us = 1000) ~policy ~cells
    (trace : Sample.t) =
  let duration_us =
    match checked_duration ~window_us ~cells trace with
    | Ok d -> d
    | Error msg -> invalid_arg ("Compile.compile: " ^ msg)
  in
  let mapping =
    Obs.span obs "trace.map"
      ~args:
        [
          ("policy", Obs.Str (Mapping.policy_name policy));
          ("cells", Obs.Int cells);
        ]
      (fun () -> Mapping.build ~policy ~cells trace)
  in
  let windows = (duration_us / window_us) + 1 in
  let events = Array.make windows [] in
  let reads = Array.make cells 0 and writes = Array.make cells 0 in
  Obs.span obs "trace.window"
    ~args:[ ("windows", Obs.Int windows); ("window_us", Obs.Int window_us) ]
    (fun () ->
      (* One pass: samples arrive in window order (Sample.t is
         nondecreasing in time), so each window's events are aggregated
         per (cell, kind) in [count], slot [2 * cell + kind], and
         flushed when the next window starts. [order] lists the window's
         slots in first-touch order, so the event list is a
         deterministic function of the stream; flushing resets exactly
         those slots. *)
      let count = Array.make (2 * cells) 0 in
      let order = Array.make (2 * cells) 0 in
      let n_order = ref 0 in
      let flush w =
        let evs = ref [] in
        for k = !n_order - 1 downto 0 do
          let slot = order.(k) in
          let kind = if slot land 1 = 0 then Access.Read else Access.Write in
          evs :=
            Access.event ~weight:(float_of_int count.(slot)) (slot lsr 1) kind
            :: !evs;
          count.(slot) <- 0
        done;
        events.(w) <- !evs;
        n_order := 0
      in
      let cur = ref 0 in
      List.iter
        (fun (s : Sample.sample) ->
          let w = s.Sample.t_us / window_us in
          if w <> !cur then begin
            flush !cur;
            cur := w
          end;
          let cell = Mapping.cell_of_addr mapping s.Sample.addr in
          let slot =
            match s.Sample.kind with
            | Access.Read ->
                reads.(cell) <- reads.(cell) + 1;
                2 * cell
            | Access.Write ->
                writes.(cell) <- writes.(cell) + 1;
                (2 * cell) + 1
          in
          if count.(slot) = 0 then begin
            order.(!n_order) <- slot;
            incr n_order
          end;
          count.(slot) <- count.(slot) + 1)
        trace.Sample.samples;
      flush !cur);
  let sum = Array.fold_left ( + ) 0 in
  let n_reads = sum reads and n_writes = sum writes in
  let touched = ref 0 in
  Array.iteri (fun c r -> if r + writes.(c) > 0 then incr touched) reads;
  Obs.incr obs ~by:(n_reads + n_writes) "trace.samples";
  Obs.incr obs ~by:windows "trace.windows";
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
    reads;
    writes;
    stats =
      {
        samples = n_reads + n_writes;
        windows;
        cells_touched = !touched;
        reads = n_reads;
        writes = n_writes;
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

let access_counts t = (Array.copy t.reads, Array.copy t.writes)

let layout_of_cells cells =
  (match Mapping.check_cells cells with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Compile.layout_of_cells: " ^ msg));
  let rec best r = if cells mod r = 0 then r else best (r - 1) in
  let r0 = int_of_float (sqrt (float_of_int cells)) in
  let r0 = if (r0 + 1) * (r0 + 1) <= cells then r0 + 1 else r0 in
  let rows = best r0 in
  Layout.make ~rows ~cols:(cells / rows) ()
