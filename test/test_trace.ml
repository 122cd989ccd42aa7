(* The trace frontend: text format round-trip, mapping policies, the
   window compiler, the synthetic generators' distributions, and the
   engine's trace jobs. The load-bearing property is clean-room
   equivalence: a compiled stream fed through [Tdfa.Driver.run (Trace ...)]
   must fingerprint-equal an independent reimplementation of the
   window/map pipeline written here from the spec — aggregation by
   weight, first-touch ordering and carrier construction are all
   implementation detail the analysis result may not depend on. *)

open Tdfa_core
open Tdfa_trace

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

let settings =
  {
    Analysis.default_settings with
    Analysis.delta_k = 0.1;
    max_iterations = 100;
  }

let base_cfg =
  { (Tdfa.Driver.default ~layout) with Tdfa.Driver.granularity = 2; settings }
let fp = Tdfa_engine.Engine.fingerprint

(* --- Parsing -------------------------------------------------------------- *)

let test_parse_basic () =
  let text =
    "# tdfa trace v1\n# name: webspam\n0.000012 R 0x10\n0.000031 W 0x18\n\
     0.000031 load 24\n0.000040 mem-stores 0x28\n"
  in
  match Sample.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
    Alcotest.(check string) "name directive" "webspam" t.Sample.name;
    Alcotest.(check int) "samples" 4 (List.length t.Sample.samples);
    Alcotest.(check int) "duration" 40 (Sample.duration_us t);
    let kinds =
      List.map (fun (s : Sample.sample) -> s.Sample.kind) t.Sample.samples
    in
    Alcotest.(check bool) "kinds"
      true
      (kinds = [ Access.Read; Access.Write; Access.Read; Access.Write ]);
    let addrs =
      List.map (fun (s : Sample.sample) -> s.Sample.addr) t.Sample.samples
    in
    Alcotest.(check (list int)) "hex and decimal addresses"
      [ 0x10; 0x18; 24; 0x28 ] addrs

let expect_error what text =
  match Sample.parse text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  | Error e ->
    Alcotest.(check bool)
      (what ^ " error cites a line number")
      true
      (String.exists (fun c -> c >= '0' && c <= '9') e)

let test_parse_errors () =
  expect_error "bad kind" "0.1 X 0x10\n";
  expect_error "bad address" "0.1 R zz\n";
  expect_error "missing field" "0.1 R\n";
  expect_error "time going backwards" "0.2 R 0x10\n0.1 W 0x18\n";
  expect_error "bad timestamp" "abc R 0x10\n"

let test_parse_timestamp_resolution () =
  (* 0.000001 must parse to exactly 1 us — decimal-string parsing, not
     float multiplication (1e-6 *. 1e6 rounding would be off-by-one on
     some values). *)
  match Sample.parse "1.000001 R 0x0\n1.1 W 0x8\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
    Alcotest.(check (list int)) "microsecond timestamps"
      [ 1_000_001; 1_100_000 ]
      (List.map (fun (s : Sample.sample) -> s.Sample.t_us) t.Sample.samples)

(* --- Mapping -------------------------------------------------------------- *)

let mk_samples specs =
  Sample.make
    (List.mapi
       (fun i (kind, addr) -> { Sample.t_us = i; kind; addr })
       specs)

let test_mapping_direct () =
  let trace = mk_samples [ (Access.Read, 0x0) ] in
  let m = Mapping.build ~policy:Mapping.Direct ~cells:64 trace in
  Alcotest.(check int) "word 0" 0 (Mapping.cell_of_addr m 0x0);
  Alcotest.(check int) "same word" 0 (Mapping.cell_of_addr m 0x7);
  Alcotest.(check int) "next word" 1 (Mapping.cell_of_addr m 0x8);
  Alcotest.(check int) "wraps at cells" 0 (Mapping.cell_of_addr m (64 * 8));
  Alcotest.(check int) "word index mod cells" 5
    (Mapping.cell_of_addr m ((64 + 5) * 8))

let test_mapping_hashed () =
  let trace = mk_samples [ (Access.Read, 0x0) ] in
  let m = Mapping.build ~policy:Mapping.Hashed ~cells:64 trace in
  let m' = Mapping.build ~policy:Mapping.Hashed ~cells:64 trace in
  let direct = Mapping.build ~policy:Mapping.Direct ~cells:64 trace in
  let scattered = ref false in
  for w = 0 to 999 do
    let c = Mapping.cell_of_addr m (w * 8) in
    Alcotest.(check bool) "in range" true (c >= 0 && c < 64);
    Alcotest.(check int) "deterministic" c (Mapping.cell_of_addr m' (w * 8));
    if c <> Mapping.cell_of_addr direct (w * 8) then scattered := true
  done;
  Alcotest.(check bool) "scatters the direct structure" true !scattered

let test_mapping_zipf_rank () =
  (* word 0x30 hit 3x, 0x10 hit 2x, 0x20 hit 1x: ranks 0, 1, 2. *)
  let trace =
    mk_samples
      [
        (Access.Read, 0x30); (Access.Read, 0x10); (Access.Write, 0x30);
        (Access.Read, 0x20); (Access.Read, 0x30); (Access.Write, 0x10);
      ]
  in
  let m = Mapping.build ~policy:Mapping.Zipf_rank ~cells:64 trace in
  Alcotest.(check int) "hottest word is cell 0" 0 (Mapping.cell_of_addr m 0x30);
  Alcotest.(check int) "second is cell 1" 1 (Mapping.cell_of_addr m 0x10);
  Alcotest.(check int) "third is cell 2" 2 (Mapping.cell_of_addr m 0x20);
  let unseen = Mapping.cell_of_addr m 0xdead00 in
  Alcotest.(check bool) "unseen word still lands on the file" true
    (unseen >= 0 && unseen < 64);
  Alcotest.(check int) "distinct words" 3 (Mapping.distinct_words trace)

let test_policy_names () =
  List.iter
    (fun p ->
      match Mapping.policy_of_string (Mapping.policy_name p) with
      | Ok p' -> Alcotest.(check bool) "name round-trip" true (p = p')
      | Error e -> Alcotest.fail e)
    Mapping.all_policies;
  match Mapping.policy_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus policy accepted"
  | Error _ -> ()

(* --- Compilation ---------------------------------------------------------- *)

let test_compile_stats () =
  let trace =
    Sample.make ~name:"t"
      [
        { Sample.t_us = 0; kind = Access.Read; addr = 0x0 };
        { Sample.t_us = 10; kind = Access.Read; addr = 0x0 };
        { Sample.t_us = 1500; kind = Access.Write; addr = 0x8 };
        { Sample.t_us = 2100; kind = Access.Read; addr = 0x10 };
      ]
  in
  let c = Compile.compile ~window_us:1000 ~policy:Mapping.Direct ~cells:64 trace in
  let s = Compile.stats c in
  Alcotest.(check int) "samples" 4 s.Compile.samples;
  Alcotest.(check int) "windows" 3 s.Compile.windows;
  Alcotest.(check int) "cells touched" 3 s.Compile.cells_touched;
  Alcotest.(check int) "reads" 3 s.Compile.reads;
  Alcotest.(check int) "writes" 1 s.Compile.writes;
  Alcotest.(check int) "duration" 2100 s.Compile.duration_us;
  let entry = Tdfa_ir.Func.entry_label (Compile.func c) in
  (* window 0: two reads of word 0 aggregate to one weight-2 event *)
  (match Compile.accesses c entry 0 with
  | [ e ] ->
    Alcotest.(check int) "cell" 0 e.Access.cell;
    Alcotest.(check bool) "kind" true (e.Access.kind = Access.Read);
    Alcotest.(check (float 0.0)) "weight aggregates" 2.0 e.Access.weight
  | evs -> Alcotest.failf "window 0: expected 1 event, got %d" (List.length evs));
  Alcotest.(check int) "off the carrier is silent" 0
    (List.length (Compile.accesses c entry 99))

let test_stream_id_content_addressed () =
  let t1 = Synth.zipf ~seed:1 ~s:1.0 ~addrs:16 ~n:200 () in
  let t2 = Synth.zipf ~seed:2 ~s:1.0 ~addrs:16 ~n:200 () in
  let id ?(cells = 64) ?(policy = Mapping.Direct) t =
    Compile.stream_id ~policy ~cells t
  in
  Alcotest.(check string) "same stream, same id" (id t1) (id t1);
  Alcotest.(check bool) "different samples, different id" true (id t1 <> id t2);
  Alcotest.(check bool) "different policy, different id" true
    (id t1 <> id ~policy:Mapping.Hashed t1);
  Alcotest.(check bool) "different cells, different id" true
    (id t1 <> id ~cells:32 t1)

let test_layout_of_cells () =
  let dims n =
    let l = Compile.layout_of_cells n in
    (l.Tdfa_floorplan.Layout.rows, l.Tdfa_floorplan.Layout.cols)
  in
  Alcotest.(check (pair int int)) "64" (8, 8) (dims 64);
  Alcotest.(check (pair int int)) "32" (4, 8) (dims 32);
  Alcotest.(check (pair int int)) "49" (7, 7) (dims 49);
  Alcotest.(check (pair int int)) "7 is prime" (1, 7) (dims 7);
  Alcotest.(check (pair int int)) "1" (1, 1) (dims 1)

(* --- Size checks ------------------------------------------------------------ *)

let tiny = Synth.zipf ~seed:1 ~s:1.0 ~addrs:16 ~n:50 ()

let expect_cells_rejected cells =
  (match Mapping.check_cells cells with
   | Ok () -> Alcotest.failf "cells %d accepted" cells
   | Error m ->
     Alcotest.(check string) "message" 
       (Printf.sprintf "cells must be in 1..%d, got %d" Mapping.max_cells cells)
       m);
  Alcotest.(check bool) "Compile.check rejects" true
    (Result.is_error (Compile.check ~cells tiny));
  (* The cell count is refused before anything is sized by it: far less
     than one float per requested cell is allocated on the way out. *)
  let before = Gc.allocated_bytes () in
  (match Compile.compile ~policy:Mapping.Direct ~cells tiny with
   | _ -> Alcotest.failf "compile with %d cells succeeded" cells
   | exception Invalid_argument _ -> ());
  (match Compile.layout_of_cells cells with
   | _ -> Alcotest.failf "layout of %d cells succeeded" cells
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "rejected before allocating" true
    (Gc.allocated_bytes () -. before < 65536.0)

(* `tdfa trace --cells 0` used to die on an uncaught Invalid_argument,
   and a serve frame with "cells":100000000 ran the daemon out of
   memory. *)
let test_cells_zero () = expect_cells_rejected 0
let test_cells_negative () = expect_cells_rejected (-1)
let test_cells_huge () = expect_cells_rejected 100_000_000

let test_window_budget () =
  let ok ?window_us cells t =
    Alcotest.(check bool)
      (Printf.sprintf "%d cells accepted" cells)
      true
      (Result.is_ok (Compile.check ?window_us ~cells t))
  in
  ok 1 tiny;
  ok Mapping.max_cells tiny;
  (* perfbench's trace stream: 20k samples over 200 windows, 4096 cells. *)
  let long = Synth.zipf ~seed:7 ~s:1.0 ~addrs:8192 ~n:20_000 () in
  ok 4096 long;
  (* One second of 1 us windows on 64 cells is over the point budget; a
     stream spanning a billion windows is refused by its window count
     alone. *)
  let one_s = Sample.make [ { Sample.t_us = 1_000_000; kind = Access.Read; addr = 0 } ] in
  Alcotest.(check bool) "windows x cells over budget" true
    (Result.is_error (Compile.check ~window_us:1 ~cells:64 one_s));
  ok ~window_us:1000 64 one_s;
  let far =
    Sample.make [ { Sample.t_us = max_int; kind = Access.Read; addr = 0 } ]
  in
  Alcotest.(check bool) "too many windows" true
    (Result.is_error (Compile.check ~window_us:1 ~cells:1 far));
  Alcotest.(check bool) "window_us must be positive" true
    (Result.is_error (Compile.check ~window_us:0 ~cells:64 tiny))

(* --- Synthetic generators ------------------------------------------------- *)

let rank_counts ~addrs (t : Sample.t) =
  let counts = Array.make addrs 0 in
  List.iter
    (fun (s : Sample.sample) ->
      let r = (s.Sample.addr - 0x1000) / Mapping.word_bytes in
      counts.(r) <- counts.(r) + 1)
    t.Sample.samples;
  counts

let chi_square observed expected =
  Array.to_list observed
  |> List.mapi (fun i o ->
         let e = expected.(i) in
         let d = float_of_int o -. e in
         d *. d /. e)
  |> List.fold_left ( +. ) 0.0

(* With 15 degrees of freedom the 0.999 chi-square quantile is 37.7; a
   correct generator at a fixed seed sits far under 40, a broken one
   (wrong exponent, biased inversion) lands in the hundreds. *)
let test_zipf_chi_square () =
  let addrs = 16 and n = 20000 in
  let uniform = Synth.zipf ~seed:42 ~s:0.0 ~addrs ~n () in
  let flat = Array.make addrs (float_of_int n /. float_of_int addrs) in
  let chi2_u = chi_square (rank_counts ~addrs uniform) flat in
  Alcotest.(check bool)
    (Printf.sprintf "s=0 uniform (chi2=%.1f)" chi2_u)
    true (chi2_u < 40.0);
  let skewed = Synth.zipf ~seed:42 ~s:1.0 ~addrs ~n () in
  let h = ref 0.0 in
  for k = 1 to addrs do
    h := !h +. (1.0 /. float_of_int k)
  done;
  let zipf_exp =
    Array.init addrs (fun k ->
        float_of_int n /. (float_of_int (k + 1) *. !h))
  in
  let chi2_z = chi_square (rank_counts ~addrs skewed) zipf_exp in
  Alcotest.(check bool)
    (Printf.sprintf "s=1 zipf (chi2=%.1f)" chi2_z)
    true (chi2_z < 40.0);
  let c = rank_counts ~addrs skewed in
  Alcotest.(check bool) "rank 0 dominates rank 15" true (c.(0) > 4 * c.(15))

let test_stream_generator () =
  let t = Synth.stream ~seed:7 ~footprint:32 ~n:100 () in
  Alcotest.(check int) "sample count" 100 (List.length t.Sample.samples);
  (* pass 0 touches words 0..15; sample 16 (pass 1) restarts at word 4. *)
  let addr i = (List.nth t.Sample.samples i).Sample.addr in
  Alcotest.(check int) "first sample at window start" 0x1000 (addr 0);
  Alcotest.(check int) "window marches by slide"
    (0x1000 + (4 * Mapping.word_bytes))
    (addr 16)

(* --- Clean-room equivalence ---------------------------------------------- *)

(* Independent reimplementation of the compile.mli spec — assoc lists
   instead of hash tables, per-sample array updates instead of a
   bucketing pass: cell = word mod cells, window = t_us / window_us,
   one event per (cell, kind) in first-touch order carrying the
   window's count as weight. The analysis may not distinguish this
   from the production compiler. *)
let by_hand ~window_us ~cells (trace : Sample.t) =
  let windows = (Sample.duration_us trace / window_us) + 1 in
  (* per window: assoc (cell, kind) -> count, newest first-touch last *)
  let tallies = Array.make windows [] in
  List.iter
    (fun (s : Sample.sample) ->
      let cell = s.Sample.addr / Mapping.word_bytes mod cells in
      let w = s.Sample.t_us / window_us in
      let key = (cell, s.Sample.kind) in
      tallies.(w) <-
        (if List.mem_assoc key tallies.(w) then
           List.map
             (fun (k, n) -> if k = key then (k, n + 1) else (k, n))
             tallies.(w)
         else tallies.(w) @ [ (key, 1) ]))
    trace.Sample.samples;
  let events =
    Array.map
      (List.map (fun ((cell, kind), n) ->
           Access.event ~weight:(float_of_int n) cell kind))
      tallies
  in
  let b = Tdfa_ir.Builder.create ~name:"by-hand" ~params:[] in
  for _ = 1 to windows do
    Tdfa_ir.Builder.nop b
  done;
  Tdfa_ir.Builder.ret b None;
  let func = Tdfa_ir.Builder.finish b in
  let entry = Tdfa_ir.Func.entry_label func in
  let accesses label index =
    if Tdfa_ir.Label.equal label entry && index >= 0
       && index < Array.length events
    then events.(index)
    else []
  in
  Tdfa.Driver.Trace { func; accesses }

let prop_trace_matches_clean_room =
  QCheck2.Test.make
    ~name:"trace: compiled stream == clean-room reimplementation" ~count:30
    QCheck2.Gen.(triple (int_range 0 30) (int_range 1 400) (int_range 1 99))
    (fun (s10, n, seed) ->
      let sample =
        Tdfa_trace.Synth.zipf ~seed ~s:(float_of_int s10 /. 10.0) ~addrs:48
          ~n ()
      in
      let compiled =
        Compile.compile ~policy:Mapping.Direct ~cells:64 sample
      in
      let produced =
        Tdfa.Driver.run base_cfg (Compile.driver_input compiled)
      in
      let reference =
        Tdfa.Driver.run base_cfg (by_hand ~window_us:1000 ~cells:64 sample)
      in
      String.equal (fp produced.outcome) (fp reference.outcome))

let gen_trace =
  let open QCheck2.Gen in
  let gen_sample =
    triple (int_range 0 50) bool (int_range 0 0xfffff)
    >|= fun (dt, read, addr) ->
    (dt, (if read then Access.Read else Access.Write), addr)
  in
  pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
    (list_size (int_range 0 40) gen_sample)
  >|= fun (name, deltas) ->
  let _, rev =
    List.fold_left
      (fun (t, acc) (dt, kind, addr) ->
        let t = t + dt in
        (t, { Sample.t_us = t; kind; addr } :: acc))
      (0, []) deltas
  in
  Sample.make ~name (List.rev rev)

let prop_print_parse_round_trip =
  QCheck2.Test.make ~name:"trace: parse (print t) == t" ~count:200 gen_trace
    (fun t ->
      match Sample.parse (Sample.print t) with
      | Error e -> QCheck2.Test.fail_reportf "re-parse failed: %s" e
      | Ok t' ->
        String.equal t.Sample.name t'.Sample.name
        && t.Sample.samples = t'.Sample.samples)

(* --- Scanner == split-based parser ----------------------------------------- *)

(* The split-based parser [Sample.parse] used before it became a one-pass
   scanner, kept verbatim as the oracle: on every input the scanner must
   return the same samples or the same error text. *)
module Split_parser = struct
  open Sample

  let us_of_seconds_string s =
    let whole, frac =
      match String.index_opt s '.' with
      | None -> (s, "")
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    let frac =
      if String.length frac > 6 then String.sub frac 0 6
      else frac ^ String.make (6 - String.length frac) '0'
    in
    let whole = if whole = "" then "0" else whole in
    match (int_of_string_opt whole, int_of_string_opt ("1" ^ frac)) with
    | Some w, Some f when w >= 0 -> Some ((w * 1_000_000) + f - 1_000_000)
    | _ -> None

  let kind_of_string = function
    | "R" | "r" | "load" | "loads" | "mem-loads" -> Some Access.Read
    | "W" | "w" | "store" | "stores" | "mem-stores" -> Some Access.Write
    | _ -> None

  let addr_of_string s =
    match int_of_string_opt s with Some a when a >= 0 -> Some a | _ -> None

  let split_fields line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun f -> f <> "")

  (* `perf script -F comm,pid,time,event,addr` columns (PEBS memory
     sampling): "comm pid [cpu] time: event: addr". The optional [cpu]
     column is skipped, the trailing colon on the timestamp is dropped,
     the event keeps only its name (modifier suffixes like ":uP" and the
     trailing colon go), and the address is hexadecimal with or without
     its 0x prefix. *)
  let drop_trailing_colon s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = ':' then String.sub s 0 (n - 1) else s

  let event_base s =
    match String.index_opt s ':' with
    | Some i -> String.sub s 0 i
    | None -> s

  let hex_addr_of_string s =
    let s =
      if String.length s > 1 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
      then s
      else "0x" ^ s
    in
    match int_of_string_opt s with Some a when a >= 0 -> Some a | _ -> None

  let perf_fields = function
    | [ _comm; pid; t; ev; a ] when int_of_string_opt pid <> None ->
        Some (t, ev, a)
    | [ _comm; pid; cpu; t; ev; a ]
      when int_of_string_opt pid <> None
           && String.length cpu >= 2
           && cpu.[0] = '['
           && cpu.[String.length cpu - 1] = ']' ->
        Some (t, ev, a)
    | _ -> None

  let name_directive line =
    (* "# name: foo" (spacing flexible) *)
    let body = String.sub line 1 (String.length line - 1) |> String.trim in
    let prefix = "name:" in
    if String.length body > String.length prefix
       && String.lowercase_ascii (String.sub body 0 (String.length prefix))
          = prefix
    then
      let v =
        String.sub body (String.length prefix)
          (String.length body - String.length prefix)
        |> String.trim
      in
      if v = "" then None else Some v
    else None

  let parse ?(name = "trace") text =
    let lines = String.split_on_char '\n' text in
    let rec go lineno name acc = function
      | [] -> Ok { name; samples = List.rev acc }
      | line :: rest -> (
          let trimmed = String.trim line in
          if trimmed = "" then go (lineno + 1) name acc rest
          else if trimmed.[0] = '#' then
            let name =
              match name_directive trimmed with Some n -> n | None -> name
            in
            go (lineno + 1) name acc rest
          else
            let parsed =
              match split_fields trimmed with
              | [ t; k; a ] ->
                  Ok
                    ( t,
                      k,
                      a,
                      us_of_seconds_string t,
                      kind_of_string k,
                      addr_of_string a )
              | fields -> (
                  match perf_fields fields with
                  | Some (t, ev, a) ->
                      let t = drop_trailing_colon t and k = event_base ev in
                      Ok
                        ( t,
                          k,
                          a,
                          us_of_seconds_string t,
                          kind_of_string k,
                          hex_addr_of_string a )
                  | None ->
                      Error
                        (Printf.sprintf
                           "line %d: expected 3 fields or perf script \
                            comm/pid/time/event/addr columns, got %d fields"
                           lineno (List.length fields)))
            in
            match parsed with
            | Error e -> Error e
            | Ok (t, k, a, t_us, kind, addr) -> (
                match (t_us, kind, addr) with
                | Some t_us, Some kind, Some addr ->
                    let prev = match acc with [] -> 0 | s :: _ -> s.t_us in
                    if t_us < prev then
                      Error
                        (Printf.sprintf "line %d: timestamp goes backwards"
                           lineno)
                    else go (lineno + 1) name ({ t_us; kind; addr } :: acc) rest
                | None, _, _ ->
                    Error (Printf.sprintf "line %d: bad timestamp %S" lineno t)
                | _, None, _ ->
                    Error
                      (Printf.sprintf
                         "line %d: bad access kind %S (want R|W|load|store)"
                         lineno k)
                | _, _, None ->
                    Error (Printf.sprintf "line %d: bad address %S" lineno a)))
    in
    go 1 name [] lines
end

let example name =
  let path =
    if Sys.file_exists ("../examples/traces/" ^ name) then
      "../examples/traces/" ^ name
    else "examples/traces/" ^ name
  in
  In_channel.with_open_text path In_channel.input_all

(* Tokens that probe int_of_string's corners: overflow, every radix
   prefix, signs, underscores, and float spellings. *)
let odd_tokens =
  [ "99999999999999999999"; "4611686018427387903"; "4611686018427387904";
    "0x7fffffffffffffff"; "0xffffffffffffffff"; "0x3fffffffffffffff";
    "9999999999999999999"; "0x8000000000000000"; "0x10000000000000000";
    "8000000000000000"; "9223372036854775807"; "9999999999999.5";
    "999999999999999.5"; "1234567890123.000001"; "-1"; "+5"; "-0"; "1_000";
    "0b101"; "0o17"; "0u12"; "0X1F"; "0x"; "0x_1"; "nan"; "inf"; "-inf";
    "1e10"; "."; ".5"; "5."; "0.1234567"; "0.123456789x"; "0._5"; ":"; "[0]";
    "[]"; "R"; "w"; "l"; "s"; "1"; "load"; "mem-loads:uP:"; "stores:"; "#" ]

let gen_separator = QCheck2.Gen.oneofl [ " "; "  "; "\t"; " \t "; "\t\t" ]

let gen_perf_line =
  let open QCheck2.Gen in
  let* sep = gen_separator in
  let* comm = oneofl [ "stencil"; "a"; "perf-exec" ] in
  let* pid = oneofl [ "4242"; "1"; "x12"; "0x10"; "-3" ] in
  let* cpu = oneofl [ None; Some "[002]"; Some "[3]"; Some "[2"; Some "2]" ] in
  let* secs = int_range 0 3 in
  let* us = int_range 0 999_999 in
  let* colon = bool in
  let* event =
    oneofl
      [ "mem-loads:uP:"; "mem-stores:uP:"; "load"; "store:"; "R"; "cycles:";
        ":uP"; "mem-loads" ]
  in
  let* addr = oneofl [ "1000"; "0x1008"; "0X10"; "ffff"; "zz"; "0x"; "7"; "" ] in
  return
    (String.concat sep
       ([ comm; pid ]
       @ Option.to_list cpu
       @ [ Printf.sprintf "%d.%06d%s" secs us (if colon then ":" else "");
           event ]
       @ if addr = "" then [] else [ addr ]))

let gen_plain_line =
  let open QCheck2.Gen in
  let* sep = gen_separator in
  let* secs = int_range 0 3 in
  let* us = int_range 0 999_999 in
  let* kind = oneofl [ "R"; "W"; "r"; "w"; "load"; "loads"; "mem-stores"; "X" ] in
  let* addr = oneofl [ "0x1000"; "4096"; "0x0"; "-8"; "0xg"; "12" ] in
  return (String.concat sep [ Printf.sprintf "%d.%06d" secs us; kind; addr ])

let gen_line =
  QCheck2.Gen.(
    frequency
      [
        (4, gen_plain_line);
        (4, gen_perf_line);
        (1, oneofl [ ""; "   "; "\t"; "# comment"; "# name: trace-x";
                     "#name:y"; "# NAME:   spaced  "; "# name:"; "\012" ]);
        (1, map2 (fun l e -> l ^ e) gen_plain_line (oneofl [ "\r"; " "; "\012" ]));
      ])

(* Comments, [# name:] directives in every spelling, and malformed
   lines: too few or too many fields, empty perf columns, bracket and
   colon corners, and whitespace the field splitter does not split on. *)
let gen_odd_line =
  let open QCheck2.Gen in
  let* sep = gen_separator in
  oneof
    [
      oneofl
        [ "#"; "# name: a b"; "  # name: lead"; "#name:\ttabbed"; "# Name: x";
          "# named: no"; "# name :no"; "#\tname: y"; "## name: z";
          "0.000001 R 0x10 # trailing"; "0.1 R"; "0.1"; "R 0x10";
          "a 1 2 3 4 5 6"; "a 1 [0] 0.5: load: 0x10 extra";
          "a 1 [] 0.5: load: 0x10"; "a 1 [0 0.5: load: 0x10"; "a 1 0.5 : load 10";
          "a 1 0.5:: load:: 0x10"; "a 1 :0.5 load 10"; "a 1 0.5: : 10";
          "0.5\012R\0120x10"; "\0120.5 R 0x10\012"; "0.5 R\r 0x10";
          "0.5 R 0x10 0x20"; "0.5 W 1e3"; "0.5 W 0x"; "0.5 W 0x-1";
          "0.5 load:uP 0x10"; "0.5 mem-loads 0x10"; "0.5. R 0x10";
          "1.2.3 R 0x10"; "-0.5 R 0x10"; "+0.5 R 0x10"; "0.5e1 R 0x10" ];
      (let* tok = oneofl odd_tokens in
       let* pos = int_range 0 2 in
       let fields = [ "0.000100"; "R"; "0x100" ] in
       return
         (String.concat sep
            (List.mapi (fun i f -> if i = pos then tok else f) fields)));
    ]

let gen_line =
  QCheck2.Gen.(frequency [ (9, gen_line); (2, gen_odd_line) ])

(* Lines in order, so that timestamps mostly go forward, ended by LF or
   by CRLF (each line, or the whole text), with or without a final
   line break. *)
let gen_lines =
  QCheck2.Gen.(
    let* lines = list_size (int_range 0 12) gen_line in
    let* eol = oneofl [ `Lf; `Crlf; `Mixed ] in
    let* final = bool in
    let ts l =
      match String.index_opt l '.' with
      | Some i when i > 0 -> l.[i - 1]
      | _ -> '0'
    in
    let lines = List.stable_sort (fun a b -> compare (ts a) (ts b)) lines in
    let* ends =
      list_size (return (List.length lines))
        (match eol with
         | `Lf -> return "\n"
         | `Crlf -> return "\r\n"
         | `Mixed -> oneofl [ "\n"; "\r\n" ])
    in
    let text = String.concat "" (List.map2 ( ^ ) lines ends) in
    let n = String.length text in
    return
      (if final || n = 0 then text
       else if n >= 2 && String.sub text (n - 2) 2 = "\r\n" then
         String.sub text 0 (n - 2)
       else String.sub text 0 (n - 1)))

(* One random edit of a text: truncate, flip a byte, or splice in an odd
   token. *)
let mutate text =
  let open QCheck2.Gen in
  let n = String.length text in
  let* pos = int_range 0 (max 0 n) in
  frequency
    [
      (1, return (String.sub text 0 pos));
      ( 2,
        let* c =
          oneof [ oneofl [ '.'; ':'; ' '; '\t'; '\n'; '\r'; 'x'; '_'; '#'; '-';
                           '0'; '9'; 'f'; '['; ']' ];
                  char ]
        in
        return
          (if n = 0 then String.make 1 c
           else String.mapi (fun i x -> if i = min pos (n - 1) then c else x) text)
      );
      ( 3,
        let* tok = oneofl odd_tokens in
        (* Replace the field that starts at or after [pos]. *)
        let rec field_start i =
          if i >= n then n
          else if (i = 0 || text.[i - 1] = ' ' || text.[i - 1] = '\n')
                  && text.[i] <> ' ' && text.[i] <> '\n'
          then i
          else field_start (i + 1)
        in
        let a = field_start pos in
        let rec field_end i =
          if i >= n || text.[i] = ' ' || text.[i] = '\n' || text.[i] = '\t'
          then i
          else field_end (i + 1)
        in
        let b = field_end a in
        return (String.sub text 0 a ^ tok ^ String.sub text b (n - b)) );
    ]

let gen_parse_input =
  let open QCheck2.Gen in
  let base =
    frequency
      [
        (2, gen_trace >|= Sample.print);
        (3, gen_lines);
        (2, oneofl [ example "sample.trace"; example "perf_script.trace" ]);
        ( 1,
          oneofl [ example "sample.trace"; example "perf_script.trace" ]
          >|= fun text ->
          String.concat "\r\n" (String.split_on_char '\n' text) );
      ]
  in
  let* text = base in
  let* edits = int_range 0 3 in
  let rec apply k text = if k = 0 then return text else mutate text >>= apply (k - 1) in
  apply edits text

let prop_scanner_matches_split_parser =
  QCheck2.Test.make ~name:"trace: scanner parse == split-based parse"
    ~count:2000 ~print:(Printf.sprintf "%S") gen_parse_input (fun text ->
      match (Sample.parse text, Split_parser.parse text) with
      | Ok a, Ok b ->
        String.equal a.Sample.name b.Sample.name
        && a.Sample.samples = b.Sample.samples
      | Error a, Error b -> String.equal a b
      | Ok _, Error e ->
        QCheck2.Test.fail_reportf "scanner accepts, oracle says %s" e
      | Error e, Ok _ ->
        QCheck2.Test.fail_reportf "oracle accepts, scanner says %s" e)

(* --- One-pass compiler == per-window aggregation ----------------------------- *)

(* [Compile.compile]'s windowing before it became one pass, kept
   verbatim as the oracle: bucket the samples per window, aggregate each
   bucket per (cell, kind) in a Hashtbl in first-touch order, then walk
   the samples again for the touched cells and the read/write counts. *)
module Window_reference = struct
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

  let compile ~window_us ~policy ~cells (trace : Sample.t) =
    let mapping = Mapping.build ~policy ~cells trace in
    let duration_us = Sample.duration_us trace in
    let windows = (duration_us / window_us) + 1 in
    let events =
      let per_window = Array.make windows [] in
      List.iter
        (fun (s : Sample.sample) ->
          let w = s.Sample.t_us / window_us in
          per_window.(w) <- s :: per_window.(w))
        trace.Sample.samples;
      Array.map (fun ss -> aggregate_window (List.rev ss) mapping) per_window
    in
    let samples = List.length trace.Sample.samples in
    let touched = Hashtbl.create 16 in
    let reads = ref 0 and writes = ref 0 in
    List.iter
      (fun (s : Sample.sample) ->
        Hashtbl.replace touched (Mapping.cell_of_addr mapping s.Sample.addr) ();
        match s.Sample.kind with
        | Access.Read -> incr reads
        | Access.Write -> incr writes)
      trace.Sample.samples;
    ( events,
      {
        Compile.samples;
        windows;
        cells_touched = Hashtbl.length touched;
        reads = !reads;
        writes = !writes;
        duration_us;
      } )
end

let gen_compile_case =
  let open QCheck2.Gen in
  let* zipf = bool in
  let* seed = int_range 0 999 in
  let* n = int_range 0 400 in
  let* period_us = oneofl [ 1; 10; 70 ] in
  let* policy = oneofl Mapping.all_policies in
  let* cells = oneofl [ 1; 7; 64; 4096 ] in
  (* 7 and 25 us windows under 70 us sampling leave empty windows. *)
  let* window_us = oneofl [ 7; 25; 100; 1000 ] in
  let sample =
    if zipf then
      Synth.zipf ~period_us ~seed ~s:(float_of_int (seed mod 20) /. 10.0)
        ~addrs:(1 + (seed mod 300)) ~n ()
    else
      Synth.stream ~period_us ~seed ~footprint:(1 + (seed mod 200)) ~n ()
  in
  return (sample, policy, cells, window_us)

let print_compile_case (sample, policy, cells, window_us) =
  Printf.sprintf "%s, %d samples, policy %s, %d cells, window %d us"
    sample.Sample.name
    (List.length sample.Sample.samples)
    (Mapping.policy_name policy) cells window_us

let same_events a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Access.event) (y : Access.event) ->
         x.Access.cell = y.Access.cell
         && x.Access.kind = y.Access.kind
         && Int64.equal
              (Int64.bits_of_float x.Access.weight)
              (Int64.bits_of_float y.Access.weight))
       a b

let prop_compile_matches_window_reference =
  QCheck2.Test.make
    ~name:"trace: one-pass compile == per-window aggregation"
    ~count:300 ~print:print_compile_case gen_compile_case
    (fun (sample, policy, cells, window_us) ->
      match Compile.check ~window_us ~cells sample with
      | Error _ -> (
          match Compile.compile ~window_us ~policy ~cells sample with
          | _ -> QCheck2.Test.fail_report "compile accepts what check rejects"
          | exception Invalid_argument _ -> true)
      | Ok () ->
          let c = Compile.compile ~window_us ~policy ~cells sample in
          let ref_events, ref_stats =
            Window_reference.compile ~window_us ~policy ~cells sample
          in
          let entry = Tdfa_ir.Func.entry_label (Compile.func c) in
          let reads, writes = Compile.access_counts c in
          let trace, cell_of_var = Compile.exec_trace c in
          let ex_reads, ex_writes =
            Tdfa_exec.Trace.access_counts trace ~cell_of_var ~num_cells:cells
          in
          Compile.stats c = ref_stats
          && Array.length ref_events = ref_stats.Compile.windows
          && Array.for_all Fun.id
               (Array.mapi
                  (fun w evs -> same_events (Compile.accesses c entry w) evs)
                  ref_events)
          && reads = ex_reads && writes = ex_writes)

(* [Render.trace] hands its state buffer back for the next trace: the
   same stream rendered again on the recycled buffer, before and after
   a different stream, prints the same bytes. *)
let test_render_trace_recycled () =
  let render sample =
    Tdfa_serve.Render.trace ~policy:Mapping.Hashed ~cells:64 ~granularity:1
      ~delta:0.05 ~recover:false sample
  in
  let a = Synth.zipf ~seed:11 ~s:1.0 ~addrs:96 ~n:900 () in
  let b = Synth.stream ~seed:12 ~footprint:40 ~n:900 () in
  let first = render a in
  let other = render b in
  Alcotest.(check string) "same text on a recycled buffer" first (render a);
  Alcotest.(check string) "other stream unchanged" other (render b)

(* A Sample.t record built by hand may break the time order Sample.make
   enforces; the one-pass windowing refuses it instead of misfiling. *)
let test_compile_out_of_order () =
  let s t_us = { Sample.t_us; kind = Access.Read; addr = 8 } in
  let bad = { Sample.name = "bad"; samples = [ s 5000; s 10 ] } in
  Alcotest.(check bool) "check rejects" true
    (Result.is_error (Compile.check ~cells:64 bad));
  Alcotest.check_raises "compile raises"
    (Invalid_argument "Compile.compile: samples are out of time order")
    (fun () -> ignore (Compile.compile ~policy:Mapping.Direct ~cells:64 bad))

(* --- Engine trace jobs ---------------------------------------------------- *)

let trace_job_of name sample =
  let c = Compile.compile ~policy:Mapping.Direct ~cells:64 sample in
  Tdfa_engine.Engine.trace_job
    ~stream_id:(Compile.stream_id ~policy:Mapping.Direct ~cells:64 sample)
    ~accesses:(Compile.accesses c) name (Compile.func c)

let fast_spec =
  { Tdfa_engine.Engine.default_spec with Tdfa_engine.Engine.granularity = 2; settings }

let test_engine_trace_cache () =
  let open Tdfa_engine in
  let j = trace_job_of "zipf" (Synth.zipf ~seed:3 ~s:1.0 ~addrs:32 ~n:400 ()) in
  let cache = Engine.Cache.in_memory () in
  let run () = Engine.run_batch ~cache ~layout fast_spec [ j ] in
  let first = run () and second = run () in
  let r1 =
    match first.Engine.results with
    | [ (_, Ok r) ] -> r
    | _ -> Alcotest.fail "first trace batch failed"
  in
  let r2 =
    match second.Engine.results with
    | [ (_, Ok r) ] -> r
    | _ -> Alcotest.fail "second trace batch failed"
  in
  Alcotest.(check bool) "first run computes" true (r1.Engine.source = Engine.Computed);
  Alcotest.(check bool) "second run hits" true (r2.Engine.source = Engine.Cache_hit);
  Alcotest.(check bool) "hit is exact" true (Engine.same_result r1 r2);
  Alcotest.(check int) "no allocation on trace jobs" 0 r1.Engine.spilled

let test_engine_trace_keys_differ () =
  let open Tdfa_engine in
  (* Two different streams with the same sample count compile to the
     same Nop-skeleton carrier; only the stream id separates their cache
     identities. *)
  let j1 = trace_job_of "a" (Synth.zipf ~seed:3 ~s:0.0 ~addrs:32 ~n:400 ()) in
  let j2 = trace_job_of "b" (Synth.zipf ~seed:3 ~s:1.5 ~addrs:32 ~n:400 ()) in
  let k1 = Engine.job_key ~layout fast_spec j1 in
  let k2 = Engine.job_key ~layout fast_spec j2 in
  Alcotest.(check bool) "stream id is load-bearing in the key" true (k1 <> k2);
  let ir = Engine.job "ir" (Compile.func (Compile.compile
    ~policy:Mapping.Direct ~cells:64 (Synth.zipf ~seed:3 ~s:0.0 ~addrs:32 ~n:400 ()))) in
  Alcotest.(check bool) "ir job of the carrier keys differently" true
    (Engine.job_key ~layout fast_spec ir <> k1)

let suite =
  [
    ( "trace.format",
      [
        Alcotest.test_case "parse basic + synonyms" `Quick test_parse_basic;
        Alcotest.test_case "parse errors carry line numbers" `Quick
          test_parse_errors;
        Alcotest.test_case "microsecond timestamp resolution" `Quick
          test_parse_timestamp_resolution;
        QCheck_alcotest.to_alcotest prop_print_parse_round_trip;
        QCheck_alcotest.to_alcotest prop_scanner_matches_split_parser;
      ] );
    ( "trace.mapping",
      [
        Alcotest.test_case "direct" `Quick test_mapping_direct;
        Alcotest.test_case "hashed" `Quick test_mapping_hashed;
        Alcotest.test_case "zipf-rank" `Quick test_mapping_zipf_rank;
        Alcotest.test_case "policy names round-trip" `Quick test_policy_names;
      ] );
    ( "trace.compile",
      [
        Alcotest.test_case "stats + window aggregation" `Quick
          test_compile_stats;
        Alcotest.test_case "stream id is content-addressed" `Quick
          test_stream_id_content_addressed;
        Alcotest.test_case "layout_of_cells near-square" `Quick
          test_layout_of_cells;
        Alcotest.test_case "regression: cells 0 is rejected" `Quick
          test_cells_zero;
        Alcotest.test_case "regression: negative cells are rejected" `Quick
          test_cells_negative;
        Alcotest.test_case "regression: cells 100000000 is rejected" `Quick
          test_cells_huge;
        Alcotest.test_case "windows x cells budget" `Quick test_window_budget;
        QCheck_alcotest.to_alcotest prop_trace_matches_clean_room;
        QCheck_alcotest.to_alcotest prop_compile_matches_window_reference;
        Alcotest.test_case "regression: out-of-order samples are rejected"
          `Quick test_compile_out_of_order;
        Alcotest.test_case "render on a recycled state buffer" `Quick
          test_render_trace_recycled;
      ] );
    ( "trace.synth",
      [
        Alcotest.test_case "zipf chi-square at fixed seed" `Quick
          test_zipf_chi_square;
        Alcotest.test_case "sliding-window stream shape" `Quick
          test_stream_generator;
      ] );
    ( "trace.engine",
      [
        Alcotest.test_case "trace job cache hit is exact" `Quick
          test_engine_trace_cache;
        Alcotest.test_case "stream id separates cache keys" `Quick
          test_engine_trace_keys_differ;
      ] );
  ]
