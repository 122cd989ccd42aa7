(* The robustness battery for the serve daemon. The load-bearing
   property is the chaos soak: a seeded fault plan scrambling frames,
   dropping connections, poisoning recordings, injecting transients,
   broken IR and handler crashes is driven through the full request
   path for >= 100 randomized requests, and the daemon must (a) never
   let an exception escape, and (b) answer every successful
   analyze/reanalyze/lint byte-identically to the cold one-shot
   renderer — degradation and recovery may change *how* an answer is
   computed, never *what* it says. Around it: codec round-trips,
   backoff determinism and bounds, fault-plan text round-trips, and
   deterministic unit cases for each failure kind. *)

open Tdfa_serve
open Tdfa_workload
module Fault = Tdfa_verify.Fault

(* --- Json codec ----------------------------------------------------------- *)

let tricky_strings =
  [ ""; "a\"b"; "line\nbreak"; "tab\there"; "back\\slash"; "caf\xc3\xa9";
    "nul\x00byte"; "{}[]:,"; " leading and trailing "; "\x01\x08\x0c\x1f\x7f";
    "\xe2\x89\x88 \xf0\x9f\x94\xa5"; "\xff\xfe not UTF-8"; "\\u0041" ]

(* Finite floats the printer must keep exact, and non-finite ones it
   must print as null. *)
let tricky_floats =
  [ 0.0; -0.0; 1e15; -1e16; 99999999999999999.0; 1e17; 1.5e300; 5e-324;
    Float.max_float; Float.min_float; Float.epsilon; 0.1; nan; infinity;
    neg_infinity ]

let gen_json =
  let open QCheck2.Gen in
  let text =
    oneof
      [
        oneofl tricky_strings;
        string_size ~gen:printable (int_range 0 12);
        string_size ~gen:char (int_range 0 12);
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000_000) 1_000_000_000);
        map (fun i -> Json.Int i) (oneofl [ min_int; max_int; 0 ]);
        map
          (fun (a, b) -> Json.Float (float_of_int a /. float_of_int b))
          (pair (int_range (-100_000) 100_000) (int_range 1 97));
        map (fun f -> Json.Float f) (oneof [ oneofl tricky_floats; float ]);
        map (fun s -> Json.Str s) text;
      ]
  in
  sized (fun size ->
      fix
        (fun self n ->
          if n <= 0 then scalar
          else
            frequency
              [
                (3, scalar);
                ( 1,
                  map (fun l -> Json.List l)
                    (list_size (int_range 0 4) (self (n / 2))) );
                ( 1,
                  map (fun kvs -> Json.Obj kvs)
                    (list_size (int_range 0 4) (pair text (self (n / 2)))) );
              ])
        (min size 6))

(* What a value reads back as: JSON has no infinities or NaN. *)
let rec finite_only = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List l -> Json.List (List.map finite_only l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, finite_only v)) kvs)
  | v -> v

let prop_json_roundtrip =
  QCheck2.Test.make
    ~name:"serve: Json round-trips, compact one-line frames and indented"
    ~count:500 gen_json (fun j ->
      let compact = Json.to_string j in
      let expected = Ok (finite_only j) in
      String.for_all (fun c -> c <> '\n' && c <> '\r') compact
      && Json.of_string compact = expected
      && Json.of_string (Json.to_string_indented j) = expected)

let test_json_rejects () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2";
      "{\"a\":1} trailing"; "nan" ]

let test_json_unicode_escapes () =
  List.iter
    (fun (frame, expected) ->
      Alcotest.(check (result string string)) frame (Ok expected)
        (Result.map
           (function Json.Str s -> s | v -> Json.to_string v)
           (Json.of_string frame)))
    [
      ({|"\u0041\u00e9\u20ac"|}, "A\xc3\xa9\xe2\x82\xac");
      ({|"\uD83D\uDE00"|}, "\xf0\x9f\x98\x80");
      ({|"\uD83D"|}, "\xef\xbf\xbd");
      ({|"\uDE00x"|}, "\xef\xbf\xbdx");
      ({|"\uD83D\u0041"|}, "\xef\xbf\xbdA");
    ];
  List.iter
    (fun frame ->
      Alcotest.(check bool) (frame ^ " rejected") true
        (Result.is_error (Json.of_string frame)))
    [ {|"\u12"|}; {|"\uzzzz"|}; {|"\uD83D\uzzzz"|} ];
  Alcotest.(check bool) "513 levels rejected" true
    (Result.is_error (Json.of_string (String.make 513 '[' ^ String.make 513 ']')));
  Alcotest.(check bool) "512 levels accepted" true
    (Result.is_ok (Json.of_string (String.make 512 '[' ^ String.make 512 ']')))

(* --- Run-copying reader == per-byte reference ------------------------------ *)

(* The same value, or the same error text with the same byte offset. *)
let same_parse text =
  match (Json.of_string text, Json_reference.of_string text) with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> String.equal a b
  | Ok _, Error e -> QCheck2.Test.fail_reportf "reference rejects: %s" e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "reader rejects: %s" e

(* Pieces of a string literal's body: plain runs, every escape, \u
   pairs, lone and broken surrogates, raw control bytes, UTF-8, and the
   bytes that end a run. *)
let gen_string_body =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        (3, string_size ~gen:printable (int_range 0 20));
        ( 3,
          oneofl
            [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|};
              {|\t|}; {|\u0041|}; {|\u00e9|}; {|\u20AC|}; {|\uD83D\uDE00|};
              {|\uD83D|}; {|\uDE00|}; {|\uD83D\u0041|}; {|\uD83D\uzzzz|};
              {|\uDBFF\uDFFF|}; {|\u12|}; {|\uzzzz|}; {|\x|}; {|\|};
              {|\u|}; {|"|}; "\xc3\xa9"; "\xe2\x82\xac";
              "\xf0\x9f\x98\x80"; "\xff\xfe" ] );
        (1, map (String.make 1) (map Char.chr (int_range 0 0x1f)));
        (1, string_size ~gen:char (int_range 0 6));
      ]
  in
  map (String.concat "") (list_size (int_range 0 8) piece)

let gen_string_frame =
  let open QCheck2.Gen in
  let* body = gen_string_body in
  let* wrap =
    oneofl
      [ (fun b -> "\"" ^ b ^ "\"");
        (fun b -> {|{"op":"trace","trace":"|} ^ b ^ {|","cells":64}|});
        (fun b -> {|["|} ^ b ^ {|", "x\n"]|});
        (fun b -> {|{"|} ^ b ^ {|":1}|}) ]
  in
  let text = wrap body in
  let* cut = oneof [ return (String.length text); int_range 0 (String.length text) ] in
  return (String.sub text 0 cut)

let prop_reader_matches_reference =
  QCheck2.Test.make ~name:"serve: run-copying Json reader == per-byte reference"
    ~count:2000 ~print:(Printf.sprintf "%S") gen_string_frame same_parse

(* A serve-floorplan trace frame as the benchmark sends it: a Zipf
   trace printed into the frame's "trace" string. *)
let trace_frame ~n =
  let sample =
    Tdfa_trace.Synth.zipf ~seed:95 ~s:1.0 ~addrs:8192 ~n ()
  in
  Json.to_string
    (Json.Obj
       [ ("id", Json.Str "trace-1"); ("op", Json.Str "trace");
         ("trace", Json.Str (Tdfa_trace.Sample.print sample));
         ("cells", Json.Int 4096) ])

let test_reader_truncations () =
  let frame = trace_frame ~n:40 in
  for cut = 0 to String.length frame do
    let text = String.sub frame 0 cut in
    if not (same_parse text) then
      Alcotest.failf "differs from the reference at cut %d" cut
  done;
  Alcotest.(check bool) "the full 20000-sample frame" true
    (same_parse (trace_frame ~n:20_000))

(* --- Backoff -------------------------------------------------------------- *)

let wide =
  {
    Robust.attempts = 6;
    base_ms = 5.0;
    multiplier = 2.0;
    max_ms = 40.0;
    jitter = 0.25;
  }

let prop_delays_deterministic_and_bounded =
  QCheck2.Test.make
    ~name:"serve: backoff delays deterministic in seed and inside bounds"
    ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let d1 = Robust.delays_ms ~seed wide
      and d2 = Robust.delays_ms ~seed wide in
      d1 = d2
      && List.length d1 = wide.Robust.attempts - 1
      && List.for_all2
           (fun i d ->
             let undithered =
               Float.min wide.Robust.max_ms
                 (wide.Robust.base_ms
                 *. (wide.Robust.multiplier ** float_of_int i))
             in
             d >= undithered *. (1.0 -. wide.Robust.jitter) -. 1e-9
             && d <= undithered *. (1.0 +. wide.Robust.jitter) +. 1e-9)
           (List.init (List.length d1) Fun.id)
           d1)

let test_retry_recovers () =
  let sleeps = ref [] in
  let calls = ref 0 in
  let v =
    Robust.retry ~sleep:(fun ms -> sleeps := ms :: !sleeps) ~seed:7
      Robust.default_backoff (fun ~attempt ->
        Alcotest.(check int) "attempt numbering" !calls attempt;
        incr calls;
        if !calls < 3 then raise (Robust.Transient "flaky");
        42)
  in
  Alcotest.(check int) "returns the late success" 42 v;
  Alcotest.(check int) "two retries" 3 !calls;
  Alcotest.(check (list (float 1e-9))) "sleeps are the published delays"
    (Robust.delays_ms ~seed:7 Robust.default_backoff)
    (List.rev !sleeps)

let test_retry_exhausts () =
  let calls = ref 0 in
  (match
     Robust.retry ~sleep:ignore ~seed:7 Robust.default_backoff
       (fun ~attempt:_ ->
         incr calls;
         raise (Robust.Transient "always"))
   with
  | () -> Alcotest.fail "should have raised"
  | exception Robust.Transient msg ->
    Alcotest.(check string) "last failure surfaces" "always" msg);
  Alcotest.(check int) "every attempt used"
    Robust.default_backoff.Robust.attempts !calls

let test_deadlines () =
  let d0 = Robust.deadline_after ~ms:(-1.0) in
  Alcotest.(check bool) "past deadline is already expired" true
    (Robust.expired d0);
  Alcotest.(check bool) "cancel token trips" true (Robust.cancel_of d0 ());
  Alcotest.(check (float 1e-9)) "remaining never negative" 0.0
    (Robust.remaining_ms d0);
  let d1 = Robust.deadline_after ~ms:60_000.0 in
  Alcotest.(check bool) "distant deadline not expired" false
    (Robust.expired d1);
  Alcotest.(check bool) "its token stays quiet" false
    (Robust.cancel_of d1 ())

(* --- Fault plans ---------------------------------------------------------- *)

let gen_plan =
  QCheck2.Gen.(
    map
      (fun (seed, stall, picks) ->
        {
          Fault.Plan.seed;
          stall_ms = float_of_int stall;
          rates =
            List.filteri (fun i _ -> List.mem i picks) Fault.Plan.all_sites
            |> List.mapi (fun i s ->
                (s, float_of_int ((i + 1) * 5) /. 100.0));
        })
      (triple (int_range 0 100_000) (int_range 0 500)
         (list_size (int_range 0 8) (int_range 0 7))))

let prop_plan_text_roundtrip =
  QCheck2.Test.make
    ~name:"serve: fault plan round-trips through its text format" ~count:200
    gen_plan (fun p ->
      match Fault.Plan.of_string (Fault.Plan.to_string p) with
      | Error _ -> false
      | Ok p' ->
        p'.Fault.Plan.seed = p.Fault.Plan.seed
        && p'.Fault.Plan.stall_ms = p.Fault.Plan.stall_ms
        && List.for_all
             (fun s -> Fault.Plan.rate p' s = Fault.Plan.rate p s)
             Fault.Plan.all_sites)

let test_plan_parse_errors () =
  let bad s =
    match Fault.Plan.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad
    [ "nonsense"; "seed = many"; "transient = 1.5"; "warp-core = 0.1";
      "stall-ms = -3" ];
  match Fault.Plan.of_string "# comment\nseed = 9\n\ntransient = 0.5" with
  | Ok p ->
    Alcotest.(check int) "seed parsed" 9 p.Fault.Plan.seed;
    Alcotest.(check (float 0.0)) "rate parsed" 0.5
      (Fault.Plan.rate p Fault.Plan.Transient)
  | Error msg -> Alcotest.failf "rejected valid plan: %s" msg

(* [Unix.sleepf] raises EINVAL on an infinite stall and a huge finite
   one wedges a worker: only finite stalls in [0, 60000] ms parse, and
   the error names the rejected value. *)
let test_plan_stall_bounded () =
  List.iter
    (fun v ->
      match Fault.Plan.of_string ("stall-ms = " ^ v) with
      | Ok _ -> Alcotest.failf "accepted stall-ms = %s" v
      | Error msg ->
        let needle = Printf.sprintf "%S" v in
        let rec has i =
          i + String.length needle <= String.length msg
          && (String.sub msg i (String.length needle) = needle || has (i + 1))
        in
        Alcotest.(check bool) ("error names " ^ v) true (has 0))
    [ "inf"; "-inf"; "nan"; "1e300"; "2e24"; "60000.5"; "-0.1" ];
  List.iter
    (fun (v, ms) ->
      match Fault.Plan.of_string ("stall-ms = " ^ v) with
      | Ok p -> Alcotest.(check (float 0.0)) v ms p.Fault.Plan.stall_ms
      | Error msg -> Alcotest.failf "rejected stall-ms = %s: %s" v msg)
    [ ("0", 0.0); ("40", 40.0); ("60000", 60000.0) ]

(* --- Transport framing ---------------------------------------------------- *)

(* Feed [input] to a fresh framer in [piece]-byte reads. *)
let frames_of ~piece input =
  let fr = Server.Framer.create () in
  let n = String.length input in
  let rec go off acc =
    if off >= n then List.concat (List.rev acc)
    else
      let len = min piece (n - off) in
      let bytes = Bytes.of_string (String.sub input off len) in
      go (off + len) (Server.Framer.feed fr bytes len :: acc)
  in
  go 0 []

let frame_testable =
  Alcotest.testable
    (fun ppf -> function
      | Server.Framer.Line l ->
        Format.fprintf ppf "Line(%d bytes)" (String.length l)
      | Server.Framer.Oversized -> Format.fprintf ppf "Oversized")
    ( = )

(* A frame split across reads is reassembled the same whatever the read
   size; an oversized one is reported once and skipped to its newline,
   and the frames around it are untouched. *)
let test_framer_split_and_bound () =
  let big = String.make 200_000 'x' in
  let input = "{\"a\":1}\n" ^ big ^ "\n\nlast" in
  let expect =
    Server.Framer.[ Line "{\"a\":1}"; Line big; Line "" ]
  in
  List.iter
    (fun piece ->
      Alcotest.(check (list frame_testable))
        (Printf.sprintf "%d-byte reads" piece)
        expect (frames_of ~piece input))
    [ 1; 7; 65536; String.length input ];
  (* One byte over the bound, fed in 64 KiB reads without building the
     frame in memory: the frame is dropped as soon as it overflows, and
     the frames on either side of it come through whole. *)
  let fr = Server.Framer.create () in
  let feed str = Server.Framer.feed fr (Bytes.of_string str) (String.length str) in
  let before = feed "small\n" in
  let piece = Bytes.make 65536 'y' in
  let rec fill left acc =
    if left = 0 then List.concat (List.rev acc)
    else
      let len = min left (Bytes.length piece) in
      fill (left - len) (Server.Framer.feed fr piece len :: acc)
  in
  let during = fill (Server.Framer.max_frame + 1) [] in
  let after = feed "\nafter\n" in
  Alcotest.(check (list frame_testable))
    "oversized frame at the real bound"
    Server.Framer.[ Line "small"; Oversized; Line "after" ]
    (before @ during @ after)

(* --- Protocol ------------------------------------------------------------- *)

let test_request_parsing () =
  let line =
    {|{"id":"r1","op":"reanalyze","kernel":"fir","granularity":2,"delta":0.1,"incremental":true,"deadline_ms":250.0}|}
  in
  (match Protocol.request_of_line line with
   | Error msg -> Alcotest.failf "rejected: %s" msg
   | Ok r ->
     Alcotest.(check string) "id" "r1" r.Protocol.id;
     Alcotest.(check bool) "op" true (r.Protocol.op = Protocol.Reanalyze);
     Alcotest.(check (option string)) "kernel" (Some "fir") r.Protocol.kernel;
     Alcotest.(check int) "granularity" 2 r.Protocol.granularity;
     Alcotest.(check bool) "incremental" true r.Protocol.incremental;
     Alcotest.(check (option (float 0.0))) "deadline" (Some 250.0)
       r.Protocol.deadline_ms);
  (match Protocol.request_of_line "not json at all" with
   | Ok _ -> Alcotest.fail "accepted garbage"
   | Error msg ->
     Alcotest.(check bool) "garbage error names the frame" true
       (String.length msg >= 9 && String.equal (String.sub msg 0 9) "bad frame"));
  (match Protocol.request_of_line {|{"op":"explode"}|} with
   | Ok _ -> Alcotest.fail "accepted unknown op"
   | Error _ -> ());
  let module Policy = Tdfa_regalloc.Policy in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Policy.name p ^ " round-trips") true
        (Policy.of_string (Policy.name p) = Some p))
    Policy.all;
  Alcotest.(check bool) "policy spellings match the CLI" true
    (Policy.of_string "bank-pack" = Some (Policy.Bank_pack 4)
    && Policy.of_string "chessboard" = Some Policy.Chessboard
    && Policy.of_string "measured" = None
    && Policy.of_string "warp" = None)

(* --- Server: deterministic single-failure cases --------------------------- *)

let policy = Tdfa_regalloc.Policy.First_fit

(* Coarse + loose so a request costs milliseconds (the cram suite
   covers the default configuration). *)
let gran = 2
let delta = 0.1

let oracle_analyze name =
  match Kernels.find name with
  | None -> Alcotest.failf "no kernel %s" name
  | Some f ->
    fst
      (Render.analyze ~policy ~granularity:gran ~delta ~pre_ra:false
         ~recover:false ~incremental:false f)

let oracle_lint ~post_ra name =
  match Kernels.find name with
  | None -> Alcotest.failf "no kernel %s" name
  | Some f -> fst (Render.lint ~post_ra ~policy f)

let req_line ?(id = "t") ?(op = "analyze") ?extra:(kvs = []) kernel =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str id); ("op", Json.Str op) ]
       @ (match kernel with
         | Some k -> [ ("kernel", Json.Str k) ]
         | None -> [])
       @ [ ("granularity", Json.Int gran); ("delta", Json.Float delta) ]
       @ kvs))

let reply = function
  | Server.Reply j -> j
  | Server.Dropped -> Alcotest.fail "unexpected drop"
  | Server.Shutdown_now _ -> Alcotest.fail "unexpected shutdown"

let expect_ok j =
  match (Json.bool_member "ok" j, Json.str_member "output" j) with
  | Some true, Some out -> out
  | _ -> Alcotest.failf "not an ok response: %s" (Json.to_string j)

let expect_error ~kind j =
  match (Json.bool_member "ok" j, Json.str_member "kind" j) with
  | Some false, Some k -> Alcotest.(check string) "error kind" kind k
  | _ -> Alcotest.failf "not an error response: %s" (Json.to_string j)

let server ?(faults = Fault.Plan.none) ?deadline_ms () =
  Server.create
    ~config:{ Server.default_config with faults; deadline_ms }
    ()

let test_analyze_matches_cli_and_warms () =
  let t = server () in
  let s = Session.create "t" in
  let out =
    expect_ok
      (reply
         (Server.handle_line t s
            (req_line ~extra:[ ("incremental", Json.Bool true) ] (Some "fib"))))
  in
  Alcotest.(check string) "analyze output == one-shot renderer"
    (oracle_analyze "fib") out;
  Alcotest.(check bool) "recording resident" true (s.Session.prior <> None);
  (* Unchanged program: the warm path answers from the recording, and
     the text cannot differ. *)
  let j = reply (Server.handle_line t s (req_line ~op:"reanalyze" None)) in
  Alcotest.(check string) "reanalyze output identical" (oracle_analyze "fib")
    (expect_ok j);
  Alcotest.(check (option string)) "identity mode reported" (Some "identity")
    (Json.str_member "mode" j);
  (* Switching kernels drops the stale recording. *)
  ignore (Server.handle_line t s (req_line (Some "scale")));
  let j2 = reply (Server.handle_line t s (req_line ~op:"reanalyze" None)) in
  Alcotest.(check string) "new kernel reanalyzed from cold"
    (oracle_analyze "scale") (expect_ok j2)

let test_lint_matches_cli () =
  let t = server () in
  let s = Session.create "t" in
  let j =
    reply
      (Server.handle_line t s
         (req_line ~op:"lint"
            ~extra:[ ("post_ra", Json.Bool true) ]
            (Some "fir")))
  in
  Alcotest.(check string) "lint output == one-shot renderer"
    (oracle_lint ~post_ra:true "fir") (expect_ok j);
  Alcotest.(check bool) "finding count surfaced" true
    (Json.int_member "findings" j <> None)

let test_bad_inputs () =
  let t = server () in
  let s = Session.create "t" in
  expect_error ~kind:"bad-request"
    (reply (Server.handle_line t s "][ not a frame"));
  expect_error ~kind:"bad-request"
    (reply (Server.handle_line t s (req_line (Some "warp_core"))));
  expect_error ~kind:"bad-request"
    (reply (Server.handle_line t s (req_line None)));
  (* parses, fails the verifier: jump to a missing block, undefined
     read *)
  let broken =
    "func @broken() {\nentry:\n  %a = const 1\n  %b = add %a, %c\n  jmp \
     missing\n}"
  in
  expect_error ~kind:"invalid-ir"
    (reply
       (Server.handle_line t s
          (req_line ~extra:[ ("ir", Json.Str broken) ] None)))

(* A function with no blocks is a parse error, answered as a bad
   request: the session is not torn down and keeps answering. *)
let test_empty_function_bad_request () =
  let t = server () in
  let s = Session.create "t" in
  expect_error ~kind:"bad-request"
    (reply
       (Server.handle_line t s
          (req_line ~extra:[ ("ir", Json.Str "func @f() {\n}\n") ] None)));
  Alcotest.(check string) "analyze still answers" (oracle_analyze "fib")
    (expect_ok (reply (Server.handle_line t s (req_line (Some "fib")))))

(* An oversized chip is rejected before any work starts (a 1000x1000
   greedy placement would score 16 million candidates), and the daemon
   keeps answering afterwards. *)
let test_place_geometry_bounded () =
  let t = server () in
  let s = Session.create "t" in
  let place cores =
    Server.handle_line t s
      (req_line ~op:"place"
         ~extra:[ ("cores", Json.Str cores); ("kernels", Json.Str "fib") ]
         None)
  in
  let j = reply (place "1000x1000") in
  expect_error ~kind:"bad-request" j;
  Alcotest.(check bool) "message names the core bound" true
    (match Json.str_member "error" j with
     | Some m ->
       let needle = "more than 1024 cores" in
       let rec has i =
         i + String.length needle <= String.length m
         && (String.sub m i (String.length needle) = needle || has (i + 1))
       in
       has 0
     | None -> false);
  ignore (expect_ok (reply (place "1x2")) : string);
  Alcotest.(check string) "analyze still answers" (oracle_analyze "fib")
    (expect_ok (reply (Server.handle_line t s (req_line (Some "fib")))))

(* A function whose only block is a terminator has no per-instruction
   state: analyze answers with the ambient map the fixpoint starts from,
   and predict and lint answer too. *)
let test_empty_function_served () =
  let t = server () in
  let s = Session.create "t" in
  let ir = "func @id(%a) {\nentry:\n  ret %a\n}" in
  let expected =
    fst
      (Render.analyze ~policy ~granularity:gran ~delta ~pre_ra:false
         ~recover:false ~incremental:false
         (Tdfa_ir.Parser.parse_func ir))
  in
  Alcotest.(check string) "analyze == one-shot renderer" expected
    (expect_ok
       (reply
          (Server.handle_line t s
             (req_line ~extra:[ ("ir", Json.Str ir) ] None))));
  List.iter
    (fun op ->
      ignore
        (expect_ok (reply (Server.handle_line t s (req_line ~op None)))
          : string))
    [ "reanalyze"; "predict"; "lint" ]

let test_deadline_expires () =
  let t = server () in
  let s = Session.create "t" in
  let j =
    reply
      (Server.handle_line t s
         (req_line ~extra:[ ("deadline_ms", Json.Float 0.0) ] (Some "fir")))
  in
  expect_error ~kind:"deadline" j;
  (* The session survives a deadline: the same request without one
     completes. *)
  Alcotest.(check string) "session still serves" (oracle_analyze "fir")
    (expect_ok (reply (Server.handle_line t s (req_line (Some "fir")))))

(* An annealed placement far longer than its deadline is cut short by
   the annealer's poll and answered with the deadline error. *)
let test_place_deadline () =
  let t = server () in
  let s = Session.create "t" in
  let t0 = Unix.gettimeofday () in
  let j =
    reply
      (Server.handle_line t s
         (req_line ~op:"place"
            ~extra:
              [
                ("kernels", Json.Str "fib,fir");
                ("place", Json.Str "anneal");
                ("sa_iters", Json.Int 5_000_000);
                ("deadline_ms", Json.Float 100.0);
              ]
            None))
  in
  expect_error ~kind:"deadline" j;
  Alcotest.(check bool) "answered within seconds" true
    (Unix.gettimeofday () -. t0 < 5.0);
  ignore
    (expect_ok
       (reply
          (Server.handle_line t s
             (req_line ~op:"place" ~extra:[ ("kernels", Json.Str "fib") ] None)))
      : string)

(* Knobs the analysis cannot run with are rejected at the frame, with
   the CLI's message, before any work starts. *)
let test_invalid_knobs_rejected () =
  let t = server () in
  let s = Session.create "t" in
  List.iter
    (fun (frame, needle) ->
      let j = reply (Server.handle_line t s frame) in
      expect_error ~kind:"bad-request" j;
      let m = Option.value ~default:"" (Json.str_member "error" j) in
      Alcotest.(check bool) (frame ^ " names the knob") true
        (String.length m >= String.length needle
        && String.sub m 0 (String.length needle) = needle))
    [
      ({|{"op":"analyze","kernel":"fib","delta":1e999}|}, "delta must be");
      ({|{"op":"analyze","kernel":"fib","delta":-0.5}|}, "delta must be");
      ({|{"op":"predict","kernel":"fib","granularity":0}|}, "granularity must");
      ({|{"op":"place","kernels":"fib","granularity":-3}|}, "granularity must");
    ];
  Alcotest.(check string) "delta 0 is allowed" "ok"
    (match
       Protocol.request_of_line {|{"op":"analyze","kernel":"fib","delta":0}|}
     with
     | Ok _ -> "ok"
     | Error m -> m)

(* A trace frame's cell count is checked at the frame, before its
   inline stream is parsed: "cells":100000000 used to run the daemon out
   of memory, and "cells":0 came back as a failed request. The window
   budget is checked once the stream is parsed, before it is compiled. *)
let test_trace_cells_rejected () =
  let t = server () in
  let s = Session.create "t" in
  let frame ?(trace = "0.1 R 0x10\n") cells =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "trace");
           ("trace", Json.Str trace);
           ("cells", Json.Int cells);
         ])
  in
  List.iter
    (fun cells ->
      (match Protocol.request_of_line (frame cells) with
       | Ok _ -> Alcotest.failf "cells %d passed the frame check" cells
       | Error m ->
         Alcotest.(check string) "message"
           (Printf.sprintf "cells must be in 1..%d, got %d"
              Tdfa_trace.Mapping.max_cells cells)
           m);
      expect_error ~kind:"bad-request"
        (reply (Server.handle_line t s (frame cells))))
    [ 0; -1; 100_000_000 ];
  expect_error ~kind:"bad-request"
    (reply
       (Server.handle_line t s
          (frame ~trace:"0 R 0x10\n9.5 W 0x18\n" Tdfa_trace.Mapping.max_cells)));
  ignore (expect_ok (reply (Server.handle_line t s (frame 16))) : string)

(* perfbench-shaped frames, mutated: every mutation is answered with a
   typed result, never an exception. *)
let fuzz_bases =
  [
    {|{"id":"fib/analyze","op":"analyze","ir":"func @f(%a) {\nentry:\n  ret %a\n}","incremental":true}|};
    {|{"id":"fib/predict","op":"predict"}|};
    {|{"id":"place-0","op":"place","cores":"8x8","place":"anneal","seed":1234567}|};
    {|{"id":"trace-0","op":"trace","trace":"# tdfa trace v1\n0 r 0x1000\n","cells":4096}|};
    {|{"id":"x","op":"lint","kernel":"fir","policy":"chessboard","granularity":2,"delta":0.1,"deadline_ms":250.0,"post_ra":true}|};
  ]

let gen_mutated_frame =
  let open QCheck2.Gen in
  let insert_at s i piece =
    let i = max 0 (min i (String.length s)) in
    String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)
  in
  let before_last_brace s piece =
    match String.rindex_opt s '}' with
    | Some i -> insert_at s i piece
    | None -> s ^ piece
  in
  let mutation =
    oneof
      [
        map (fun k s -> String.sub s 0 (k mod (String.length s + 1))) nat;
        map2
          (fun k c s ->
            if s = "" then s
            else
              String.mapi
                (fun i d -> if i = k mod String.length s then c else d)
                s)
          nat char;
        return (fun s -> before_last_brace s {|,"sa_iters":123456789012345678901234567890|});
        return (fun s -> before_last_brace s {|,"delta":1e999|});
        return (fun s -> before_last_brace s {|,"granularity":-9223372036854775809|});
        return (fun s -> before_last_brace s {|,"kernel":"\uD83D"|});
        map (fun k s -> insert_at s (k mod (String.length s + 1)) "\\uD83D") nat;
        return (fun s -> before_last_brace s (",\"x\":" ^ String.make 100_000 '['));
        return (fun _ -> String.make 100_000 '[');
      ]
  in
  map2
    (fun base ms -> List.fold_left (fun s m -> m s) base ms)
    (oneofl fuzz_bases)
    (list_size (int_range 1 3) mutation)

let prop_frames_never_raise =
  QCheck2.Test.make ~name:"serve: mutated frames parse to Ok or Error"
    ~count:500 ~print:(fun s -> String.escaped (String.sub s 0 (min 200 (String.length s))))
    gen_mutated_frame (fun line ->
      match Protocol.request_of_line line with Ok _ | Error _ -> true)

let test_corrupt_recording_falls_back_cold () =
  (* Rate 1.0: the recording is poisoned before every warm reanalyze;
     the integrity digest must send the run cold with identical text. *)
  let t =
    server
      ~faults:
        {
          Fault.Plan.seed = 11;
          rates = [ (Fault.Plan.Corrupt_recording, 1.0) ];
          stall_ms = 0.0;
        }
      ()
  in
  let s = Session.create "t" in
  ignore
    (Server.handle_line t s
       (req_line ~extra:[ ("incremental", Json.Bool true) ] (Some "fib")));
  let j = reply (Server.handle_line t s (req_line ~op:"reanalyze" None)) in
  Alcotest.(check string) "poisoned recording still answers cold text"
    (oracle_analyze "fib") (expect_ok j);
  Alcotest.(check (option string)) "fallback reason surfaced"
    (Some "fallback:corrupt-recording")
    (Json.str_member "mode" j)

let test_session_crash_quarantines_and_rebuilds () =
  let t =
    server
      ~faults:
        {
          Fault.Plan.seed = 3;
          rates = [ (Fault.Plan.Session_crash, 1.0) ];
          stall_ms = 0.0;
        }
      ()
  in
  let s = Session.create "t" in
  expect_error ~kind:"session-crash"
    (reply (Server.handle_line t s (req_line (Some "fib"))));
  Alcotest.(check int) "session quarantined once" 1 s.Session.crashes;
  Alcotest.(check int) "daemon counted the crash" 1 t.Server.crashes;
  Alcotest.(check bool) "crashing request not in the rebuild log" true
    (s.Session.log = []);
  (* Control ops bypass the work path: the daemon still answers. *)
  let j = reply (Server.handle_line t s (req_line ~op:"status" None)) in
  Alcotest.(check (option int)) "status reports the crash" (Some 1)
    (Json.int_member "session_crashes" j)

let test_shutdown () =
  let t = server () in
  let s = Session.create "t" in
  (match Server.handle_line t s (req_line ~op:"shutdown" None) with
   | Server.Shutdown_now j ->
     Alcotest.(check string) "acknowledges" "shutting down\n" (expect_ok j)
   | _ -> Alcotest.fail "expected Shutdown_now");
  Alcotest.(check bool) "loop flag set" true t.Server.shutting_down

(* --- The chaos soak ------------------------------------------------------- *)

(* Small kernels only, so 100+ analyses stay cheap. *)
let soak_kernels = [| "fib"; "dotprod"; "vecadd"; "scale" |]

let soak ~seed ~requests =
  let t = server ~faults:(Fault.Plan.default ~seed) () in
  let sessions = Array.init 3 (fun i -> Session.create (Printf.sprintf "s%d" i)) in
  let rng = Random.State.make [| seed; 0x50a7 |] in
  let analyze_oracle = Hashtbl.create 8 and lint_oracle = Hashtbl.create 8 in
  let expected_analyze k =
    match Hashtbl.find_opt analyze_oracle k with
    | Some o -> o
    | None ->
      let o = oracle_analyze k in
      Hashtbl.replace analyze_oracle k o;
      o
  in
  let expected_lint key =
    match Hashtbl.find_opt lint_oracle key with
    | Some o -> o
    | None ->
      let o = oracle_lint ~post_ra:(snd key) (fst key) in
      Hashtbl.replace lint_oracle key o;
      o
  in
  let ok = ref 0 and errors = ref 0 and dropped = ref 0 in
  for i = 1 to requests do
    let session = sessions.(Random.State.int rng (Array.length sessions)) in
    let kernel = soak_kernels.(Random.State.int rng (Array.length soak_kernels)) in
    let post_ra = Random.State.bool rng in
    let op, extra =
      match Random.State.int rng 10 with
      | 0 -> ("status", [])
      | 1 | 2 -> ("lint", [ ("post_ra", Json.Bool post_ra) ])
      | 3 | 4 | 5 -> ("reanalyze", [])
      | _ -> ("analyze", [ ("incremental", Json.Bool (Random.State.bool rng)) ])
    in
    let line = req_line ~id:(string_of_int i) ~op ~extra (Some kernel) in
    match Server.handle_line t session line with
    | exception e ->
      Alcotest.failf "request %d escaped the daemon: %s" i
        (Printexc.to_string e)
    | Server.Dropped -> incr dropped
    | Server.Shutdown_now _ -> Alcotest.failf "request %d: spurious shutdown" i
    | Server.Reply j -> (
      match Json.bool_member "ok" j with
      | Some true ->
        incr ok;
        let out = expect_ok j in
        (match Json.str_member "op" j with
         | Some ("analyze" | "reanalyze") ->
           (* Warm, degraded-cold, post-corruption-fallback: every
              successful path must render the cold oracle's bytes. *)
           Alcotest.(check string)
             (Printf.sprintf "request %d: analyze text == cold oracle" i)
             (expected_analyze kernel) out
         | Some "lint" ->
           let effective_post_ra =
             match Json.str_member "degraded" j with
             | Some _ -> false (* lint-minimal rung: pre-RA context *)
             | None -> post_ra
           in
           Alcotest.(check string)
             (Printf.sprintf "request %d: lint text == oracle" i)
             (expected_lint (kernel, effective_post_ra))
             out
         | _ -> ())
      | _ ->
        incr errors;
        let kind = Option.value ~default:"?" (Json.str_member "kind" j) in
        Alcotest.(check bool)
          (Printf.sprintf "request %d: structured error kind (%s)" i kind)
          true
          (List.mem kind
             [
               "bad-request"; "deadline"; "transient"; "invalid-ir";
               "session-crash"; "failed";
             ]))
  done;
  Alcotest.(check bool) "chaos actually fired" true (!errors + !dropped > 0);
  Alcotest.(check bool) "most requests still answered" true (!ok > requests / 3)

let test_chaos_soak () =
  soak ~seed:7 ~requests:60;
  soak ~seed:104729 ~requests:60

let suite =
  let tc = Alcotest.test_case in
  [
    ( "serve",
      [
        tc "json rejects malformed frames" `Quick test_json_rejects;
        tc "retry recovers after transients" `Quick test_retry_recovers;
        tc "retry exhausts and re-raises" `Quick test_retry_exhausts;
        tc "deadlines expire and convert to cancel tokens" `Quick
          test_deadlines;
        tc "fault plan parse errors + comments" `Quick test_plan_parse_errors;
        tc "request parsing mirrors the CLI flags" `Quick test_request_parsing;
        tc "analyze/reanalyze == one-shot CLI text, warm identity" `Quick
          test_analyze_matches_cli_and_warms;
        tc "lint == one-shot CLI text" `Quick test_lint_matches_cli;
        tc "bad frames, unknown kernels, invalid IR rejected" `Quick
          test_bad_inputs;
        tc "deadline expiry is a structured error, session survives" `Quick
          test_deadline_expires;
        tc "corrupt recording falls back cold, same bytes" `Quick
          test_corrupt_recording_falls_back_cold;
        tc "session crash: quarantine, rebuild, structured error" `Quick
          test_session_crash_quarantines_and_rebuilds;
        tc "shutdown handshake" `Quick test_shutdown;
        tc "chaos soak: 120 randomized faulty requests, zero escapes" `Quick
          test_chaos_soak;
        tc "oversized place geometry is a structured error" `Quick
          test_place_geometry_bounded;
        tc "function without instructions is analysed" `Quick
          test_empty_function_served;
        tc "place honours the request deadline" `Quick test_place_deadline;
        tc "trace cell counts out of range are bad requests" `Quick
          test_trace_cells_rejected;
        tc "invalid delta and granularity are bad requests" `Quick
          test_invalid_knobs_rejected;
        tc "json \\u escapes and nesting depth" `Quick
          test_json_unicode_escapes;
        tc "json reader == reference on every truncated trace frame" `Quick
          test_reader_truncations;
        tc "framing: split reads reassemble, oversized frames bounded"
          `Quick test_framer_split_and_bound;
        tc "fault plan stall-ms finite and bounded" `Quick
          test_plan_stall_bounded;
        tc "function with no blocks is a bad request" `Quick
          test_empty_function_bad_request;
      ] );
    ( "serve.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_json_roundtrip;
          prop_reader_matches_reference;
          prop_delays_deterministic_and_bounded;
          prop_plan_text_roundtrip;
          prop_frames_never_raise;
        ] );
  ]
