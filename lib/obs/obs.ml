type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

type phase = Begin | End | Complete of float | Instant | Counter

type event = {
  name : string;
  phase : phase;
  ts_us : float;
  tid : int;
  id : int;
  parent : int;
  args : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type metric = C of int ref | G of float ref | H of hist

type registry = (string, metric) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Backends                                                             *)
(* ------------------------------------------------------------------ *)

type backend =
  | Null_backend
  | Memory of event list ref
  | Lines of out_channel
  | Chrome of out_channel * bool ref (* channel, "first element" flag *)

type sink = {
  backend : backend;
  metrics : registry option;
  mutex : Mutex.t;
  t0 : float;
  closed : bool ref;
}

let null =
  {
    backend = Null_backend;
    metrics = None;
    mutex = Mutex.create ();
    t0 = 0.0;
    closed = ref false;
  }

let make backend metrics =
  {
    backend;
    metrics;
    mutex = Mutex.create ();
    t0 = Unix.gettimeofday ();
    closed = ref false;
  }

let memory () = make (Memory (ref [])) (Some (Hashtbl.create 32))

let json_file ~path = make (Lines (open_out path)) (Some (Hashtbl.create 32))

let chrome_trace ~path =
  let oc = open_out path in
  output_string oc "[\n";
  make (Chrome (oc, ref true)) (Some (Hashtbl.create 32))

let metrics_only () = make Null_backend (Some (Hashtbl.create 32))

let tracing t = t.backend <> Null_backend
let metering t = t.metrics <> None

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                       *)
(* ------------------------------------------------------------------ *)

let phase_letter = function
  | Begin -> "B"
  | End -> "E"
  | Complete _ -> "X"
  | Instant -> "i"
  | Counter -> "C"

(* One object of the Chrome trace_event format. *)
let chrome_json e =
  Obj
    ([
       ("name", Str e.name);
       ("cat", Str "tdfa");
       ("ph", Str (phase_letter e.phase));
       ("ts", Float e.ts_us);
     ]
    @ (match e.phase with
       | Complete dur -> [ ("dur", Float dur) ]
       | Instant -> [ ("s", Str "t") ]
       | _ -> [])
    @ [ ("pid", Int 1); ("tid", Int e.tid); ("args", Obj e.args) ])

(* One object per line: the native schema (span ids and parent links
   made explicit, which the Chrome format leaves implicit in B/E
   nesting). *)
let line_json e =
  Obj
    ([
       ("name", Str e.name);
       ("ph", Str (phase_letter e.phase));
       ("ts_us", Float e.ts_us);
     ]
    @ (match e.phase with Complete dur -> [ ("dur_us", Float dur) ] | _ -> [])
    @ [
        ("tid", Int e.tid);
        ("id", Int e.id);
        ("parent", Int e.parent);
        ("args", Obj e.args);
      ])

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)
(* ------------------------------------------------------------------ *)

let now_us t =
  match t.backend with
  | Null_backend -> 0.0
  | _ -> (Unix.gettimeofday () -. t.t0) *. 1.0e6

let emit t e =
  locked t (fun () ->
      if not !(t.closed) then
        match t.backend with
        | Null_backend -> ()
        | Memory events -> events := e :: !events
        | Lines oc ->
          output_string oc (Json.to_string (line_json e));
          output_char oc '\n'
        | Chrome (oc, first) ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (Json.to_string (chrome_json e)))

let events t =
  locked t (fun () ->
      match t.backend with Memory events -> List.rev !events | _ -> [])

let close t =
  locked t (fun () ->
      if not !(t.closed) then begin
        t.closed := true;
        match t.backend with
        | Lines oc -> close_out oc
        | Chrome (oc, _) ->
          output_string oc "\n]\n";
          close_out oc
        | Null_backend | Memory _ -> ()
      end)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* Per-domain stack of open span ids: children link to their enclosing
   span, and each domain nests independently. *)
let span_stack : (int * float) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let next_id = Atomic.make 1
let tid () = (Domain.self () :> int)

let current_parent () =
  match !(Domain.DLS.get span_stack) with [] -> 0 | (id, _) :: _ -> id

let span t ?(args = []) name f =
  if t.backend = Null_backend then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = current_parent () in
    let ts = now_us t in
    stack := (id, ts) :: !stack;
    emit t { name; phase = Begin; ts_us = ts; tid = tid (); id; parent; args };
    Fun.protect
      ~finally:(fun () ->
        (match !stack with [] -> () | _ :: rest -> stack := rest);
        let ts_end = now_us t in
        emit t
          {
            name;
            phase = End;
            ts_us = ts_end;
            tid = tid ();
            id;
            parent;
            args = [ ("dur_ms", Float ((ts_end -. ts) /. 1.0e3)) ];
          })
      f
  end

let instant t ?(args = []) name =
  if t.backend <> Null_backend then
    emit t
      {
        name;
        phase = Instant;
        ts_us = now_us t;
        tid = tid ();
        id = 0;
        parent = current_parent ();
        args;
      }

let complete t ?(args = []) ~name ~ts_us ~dur_us () =
  if t.backend <> Null_backend then
    emit t
      {
        name;
        phase = Complete dur_us;
        ts_us;
        tid = tid ();
        id = Atomic.fetch_and_add next_id 1;
        parent = current_parent ();
        args;
      }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let counter_event t name total =
  if t.backend <> Null_backend then
    emit t
      {
        name;
        phase = Counter;
        ts_us = now_us t;
        tid = tid ();
        id = 0;
        parent = current_parent ();
        args = [ ("value", Int total) ];
      }

let incr t ?(by = 1) name =
  match t.metrics with
  | None -> ()
  | Some reg ->
    let total =
      locked t (fun () ->
          match Hashtbl.find_opt reg name with
          | Some (C r) ->
            r := !r + by;
            !r
          | Some _ | None ->
            Hashtbl.replace reg name (C (ref by));
            by)
    in
    counter_event t name total

let gauge t name v =
  match t.metrics with
  | None -> ()
  | Some reg ->
    locked t (fun () ->
        match Hashtbl.find_opt reg name with
        | Some (G r) -> r := v
        | Some _ | None -> Hashtbl.replace reg name (G (ref v)))

let observe t name v =
  match t.metrics with
  | None -> ()
  | Some reg ->
    locked t (fun () ->
        match Hashtbl.find_opt reg name with
        | Some (H h) ->
          h.count <- h.count + 1;
          h.sum <- h.sum +. v;
          h.min_v <- Float.min h.min_v v;
          h.max_v <- Float.max h.max_v v
        | Some _ | None ->
          Hashtbl.replace reg name
            (H { count = 1; sum = v; min_v = v; max_v = v }))

let render_metric = function
  | C r -> string_of_int !r
  | G r -> Printf.sprintf "%g" !r
  | H h ->
    Printf.sprintf "count %d  min %.3f  mean %.3f  max %.3f" h.count h.min_v
      (h.sum /. float_of_int (max 1 h.count))
      h.max_v

let metrics_rows t =
  match t.metrics with
  | None -> []
  | Some reg ->
    locked t (fun () ->
        Hashtbl.fold (fun name m acc -> (name, render_metric m) :: acc) reg [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_metrics ?(oc = stderr) t =
  match metrics_rows t with
  | [] -> ()
  | rows ->
    output_string oc "metrics:\n";
    List.iter
      (fun (name, v) -> Printf.fprintf oc "  %-32s %s\n" name v)
      rows;
    flush oc

(* ------------------------------------------------------------------ *)
(* Fixpoint telemetry                                                   *)
(* ------------------------------------------------------------------ *)

module Fixpoint = struct
  let iteration t ~iteration ~max_delta_k ~delta_k ~unstable =
    instant t "analysis.iteration"
      ~args:
        [
          ("iteration", Int iteration);
          ("max_delta_k", Float max_delta_k);
          ("delta_k", Float delta_k);
          ("unstable", Int unstable);
        ]

  let verdict t ~converged ~iterations ~final_delta_k =
    instant t "analysis.verdict"
      ~args:
        [
          ("converged", Bool converged);
          ("iterations", Int iterations);
          ("final_delta_k", Float final_delta_k);
        ];
    incr t "analysis.runs";
    if not converged then incr t "analysis.diverged";
    observe t "analysis.iterations" (float_of_int iterations)

  let escape_hatch t ~iterations ~unstable =
    instant t "analysis.escape_hatch"
      ~args:[ ("iterations", Int iterations); ("unstable", Int unstable) ];
    incr t "analysis.escape_hatch"

  let rung t ~fallback ~converged ~iterations =
    instant t "analysis.recovery.rung"
      ~args:
        [
          ("fallback", Str fallback);
          ("converged", Bool converged);
          ("iterations", Int iterations);
        ];
    incr t "analysis.recovery.rungs"
end
