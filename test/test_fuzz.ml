(* Fuzzing the text parsers that read user files: the textual IR, the
   fault-plan format and the lint configuration file. Each starts from
   real inputs (the checked-in examples/ir kernels, the default chaos
   plan, a binding per registered lint rule), applies a few random
   mutations — truncation, byte flips, line deletion, huge integers,
   non-finite float literals, emptied bodies — or feeds random bytes,
   and requires a typed answer: [Ok], an [Error] result, or
   [Parser.Error] for the IR. Any other exception is a parser bug (a
   function with no blocks used to escape as [Invalid_argument], and
   [stall-ms = inf] parsed into a plan that crashed the worker pool). *)

open Tdfa_ir
module Fault = Tdfa_verify.Fault

let ir_seeds =
  let dir =
    if Sys.file_exists "../examples/ir" then "../examples/ir"
    else "examples/ir"
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".tdfa")
  |> List.map (fun f ->
      In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)

let insert_at s i piece =
  let i = max 0 (min i (String.length s)) in
  String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)

(* Replace the text between the first '{' and the last '}' — an empty
   function body, or one holding only the given text. *)
let replace_body piece s =
  match (String.index_opt s '{', String.rindex_opt s '}') with
  | Some i, Some j when i < j ->
    String.sub s 0 (i + 1) ^ piece ^ String.sub s j (String.length s - j)
  | _ -> s

(* Replace the value of the [k]-th "key = value" line. *)
let replace_value k v s =
  let lines = String.split_on_char '\n' s in
  let bindings = List.filter (fun l -> String.contains l '=') lines in
  match bindings with
  | [] -> s
  | _ ->
    let target = List.nth bindings (k mod List.length bindings) in
    let key = String.sub target 0 (String.index target '=') in
    String.concat "\n"
      (List.map (fun l -> if l == target then key ^ "= " ^ v else l) lines)

let nasty_literals =
  [ "nan"; "inf"; "-inf"; "1e300"; "2e24"; "-0"; "99999999999999999999999";
    "-9223372036854775809"; "0x7fffffffffffffff"; ""; "=" ]

let mutation =
  let open QCheck2.Gen in
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
      map
        (fun k s ->
          let lines = String.split_on_char '\n' s in
          let n = k mod (List.length lines) in
          String.concat "\n" (List.filteri (fun i _ -> i <> n) lines))
        nat;
      map2
        (fun k lit s -> insert_at s (k mod (String.length s + 1)) lit)
        nat (oneofl nasty_literals);
      map2 (fun k lit s -> replace_value k lit s) nat (oneofl nasty_literals);
      return (replace_body "\n");
      return (replace_body "\nentry:\n  ret\nentry:\n  ret\n");
      return (fun s -> s ^ "\n" ^ s);
    ]

let mutated seeds =
  let open QCheck2.Gen in
  oneof
    [
      map2
        (fun base ms -> List.fold_left (fun s m -> m s) base ms)
        (oneofl seeds)
        (list_size (int_range 1 3) mutation);
      string_size ~gen:char (int_range 0 200);
    ]

let print s = String.escaped (String.sub s 0 (min 300 (String.length s)))

let prop_ir_text =
  QCheck2.Test.make ~name:"fuzz: IR text parses or raises Parser.Error"
    ~count:1000 ~print (mutated ir_seeds) (fun src ->
      match Parser.parse_program src with
      | _ -> true
      | exception Parser.Error _ -> true)

(* An accepted plan must also be safe to run: rates are probabilities
   and a stall is a finite, bounded sleep. *)
let prop_fault_plan_text =
  let seeds =
    [
      Fault.Plan.to_string (Fault.Plan.default ~seed:7);
      "# chaos\nseed = 3\nworker-stall = 1\nstall-ms = 40\n";
    ]
  in
  QCheck2.Test.make ~name:"fuzz: fault-plan text yields Ok (runnable) or Error"
    ~count:1000 ~print (mutated seeds) (fun src ->
      match Fault.Plan.of_string src with
      | Error _ -> true
      | Ok p ->
        let stall = p.Fault.Plan.stall_ms in
        Float.is_finite stall && stall >= 0.0 && stall <= 60_000.0
        && List.for_all
             (fun s ->
               let r = Fault.Plan.rate p s in
               r >= 0.0 && r <= 1.0)
             Fault.Plan.all_sites)

let prop_lint_config_text =
  let known = Tdfa_lint.Rules.all in
  let seed =
    "# lint settings\n"
    ^ String.concat "\n"
        (List.mapi
           (fun i (r : Tdfa_lint.Lint.rule) ->
             r.Tdfa_lint.Lint.id ^ " = "
             ^ List.nth [ "info"; "warn"; "error"; "off" ] (i mod 4))
           known)
  in
  QCheck2.Test.make ~name:"fuzz: lint-config text yields Ok or Error"
    ~count:300 ~print (mutated [ seed ]) (fun src ->
      let path = Filename.temp_file "tdfa_lint" ".cfg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc src);
          match Tdfa_lint.Lint.config_of_file ~known path with
          | Ok _ | Error _ -> true))

let suite =
  [
    ( "fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ prop_ir_text; prop_fault_plan_text; prop_lint_config_text ] );
  ]
