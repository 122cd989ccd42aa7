(* Tests of the IR substrate: variables, instructions, blocks, CFG
   queries, the builder, the printer/parser round trip and the
   validator. *)

open Tdfa_ir

let var = Var.of_string
let lbl = Label.of_string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let check_vars = Alcotest.(check (list string))
let vars_to_strings vs = List.map Var.to_string vs

(* --- Var / Label ---------------------------------------------------- *)

let test_var_basics () =
  Alcotest.(check string) "roundtrip" "x" (Var.to_string (var "x"));
  Alcotest.(check bool) "equal" true (Var.equal (var "x") (var "x"));
  Alcotest.(check bool) "not equal" false (Var.equal (var "x") (var "y"));
  Alcotest.(check int) "compare sign" 0 (Var.compare (var "a") (var "a"));
  Alcotest.(check bool) "set" true
    (Var.Set.mem (var "b") (Var.Set.of_list [ var "a"; var "b" ]))

let test_var_pp () =
  Alcotest.(check string) "pp prefixes %" "%foo"
    (Format.asprintf "%a" Var.pp (var "foo"))

let test_label_basics () =
  Alcotest.(check string) "roundtrip" "entry" (Label.to_string (lbl "entry"));
  Alcotest.(check string) "pp bare" "entry"
    (Format.asprintf "%a" Label.pp (lbl "entry"))

(* --- Instr ----------------------------------------------------------- *)

let test_instr_def_uses () =
  let i = Instr.Binop (Instr.Add, var "d", var "a", var "b") in
  Alcotest.(check (option string)) "def" (Some "d")
    (Option.map Var.to_string (Instr.def i));
  check_vars "uses" [ "a"; "b" ] (vars_to_strings (Instr.uses i));
  check_vars "accessed = uses then def" [ "a"; "b"; "d" ]
    (vars_to_strings (Instr.accessed i))

let test_instr_store_no_def () =
  let i = Instr.Store (var "v", var "base", 4) in
  Alcotest.(check (option string)) "no def" None
    (Option.map Var.to_string (Instr.def i));
  check_vars "uses value then base" [ "v"; "base" ]
    (vars_to_strings (Instr.uses i))

let test_instr_duplicate_uses_preserved () =
  let i = Instr.Binop (Instr.Mul, var "d", var "a", var "a") in
  check_vars "a read twice" [ "a"; "a" ] (vars_to_strings (Instr.uses i))

let test_instr_call () =
  let i = Instr.Call (Some (var "r"), "f", [ var "x"; var "y" ]) in
  Alcotest.(check (option string)) "def" (Some "r")
    (Option.map Var.to_string (Instr.def i));
  check_vars "args" [ "x"; "y" ] (vars_to_strings (Instr.uses i));
  let i2 = Instr.Call (None, "g", []) in
  Alcotest.(check (option string)) "void call" None
    (Option.map Var.to_string (Instr.def i2))

let test_instr_map_uses_keeps_def () =
  let i = Instr.Binop (Instr.Add, var "d", var "a", var "b") in
  let j = Instr.map_uses (fun _ -> var "z") i in
  Alcotest.(check (option string)) "def kept" (Some "d")
    (Option.map Var.to_string (Instr.def j));
  check_vars "uses renamed" [ "z"; "z" ] (vars_to_strings (Instr.uses j))

let test_instr_map_def_keeps_uses () =
  let i = Instr.Load (var "d", var "base", 8) in
  let j = Instr.map_def (fun _ -> var "q") i in
  Alcotest.(check (option string)) "def renamed" (Some "q")
    (Option.map Var.to_string (Instr.def j));
  check_vars "uses kept" [ "base" ] (vars_to_strings (Instr.uses j))

let test_eval_binop () =
  let open Instr in
  Alcotest.(check int) "add" 7 (eval_binop Add 3 4);
  Alcotest.(check int) "sub" (-1) (eval_binop Sub 3 4);
  Alcotest.(check int) "mul" 12 (eval_binop Mul 3 4);
  Alcotest.(check int) "div" 2 (eval_binop Div 9 4);
  Alcotest.(check int) "div by zero is total" 0 (eval_binop Div 9 0);
  Alcotest.(check int) "rem by zero is total" 0 (eval_binop Rem 9 0);
  Alcotest.(check int) "slt true" 1 (eval_binop Slt 1 2);
  Alcotest.(check int) "slt false" 0 (eval_binop Slt 2 1);
  Alcotest.(check int) "seq" 1 (eval_binop Seq 5 5);
  Alcotest.(check int) "xor" 6 (eval_binop Xor 5 3);
  Alcotest.(check int) "shl" 16 (eval_binop Shl 1 4)

let test_eval_unop () =
  let open Instr in
  Alcotest.(check int) "neg" (-5) (eval_unop Neg 5);
  Alcotest.(check int) "not" (-1) (eval_unop Not 0);
  Alcotest.(check int) "mov" 42 (eval_unop Mov 42)

let test_binop_names_roundtrip () =
  let open Instr in
  List.iter
    (fun op ->
      match binop_of_string (string_of_binop op) with
      | Some op' -> Alcotest.(check bool) "binop name roundtrip" true (op = op')
      | None -> Alcotest.fail "binop name did not parse back")
    [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Slt; Sle; Seq; Sne ]

let test_instr_to_string () =
  Alcotest.(check string) "const" "%d = const 5"
    (Instr.to_string (Instr.Const (var "d", 5)));
  Alcotest.(check string) "store" "store %v, %b, 4"
    (Instr.to_string (Instr.Store (var "v", var "b", 4)));
  Alcotest.(check string) "nop" "nop" (Instr.to_string Instr.Nop)

(* --- Block / Func ----------------------------------------------------- *)

let diamond () =
  (* entry -> (a | b) -> join *)
  Func.make ~name:"diamond" ~params:[ var "p" ]
    [
      Block.make (lbl "entry")
        [ Instr.Const (var "c", 1) ]
        (Block.Branch (var "p", lbl "a", lbl "b"));
      Block.make (lbl "a")
        [ Instr.Binop (Instr.Add, var "x", var "c", var "p") ]
        (Block.Jump (lbl "join"));
      Block.make (lbl "b")
        [ Instr.Binop (Instr.Sub, var "x", var "c", var "p") ]
        (Block.Jump (lbl "join"));
      Block.make (lbl "join") [] (Block.Return (Some (var "x")));
    ]

let test_block_successors () =
  Alcotest.(check (list string)) "jump" [ "x" ]
    (List.map Label.to_string (Block.successors (Block.Jump (lbl "x"))));
  Alcotest.(check (list string)) "branch" [ "t"; "f" ]
    (List.map Label.to_string
       (Block.successors (Block.Branch (var "c", lbl "t", lbl "f"))));
  Alcotest.(check (list string)) "return" []
    (List.map Label.to_string (Block.successors (Block.Return None)))

let test_func_duplicate_labels_rejected () =
  Alcotest.check_raises "duplicate labels"
    (Invalid_argument "Func.make: duplicate label a")
    (fun () ->
      ignore
        (Func.make ~name:"bad" ~params:[]
           [
             Block.make (lbl "a") [] (Block.Return None);
             Block.make (lbl "a") [] (Block.Return None);
           ]))

let test_func_empty_rejected () =
  Alcotest.check_raises "no blocks" (Invalid_argument "Func.make: no blocks")
    (fun () -> ignore (Func.make ~name:"bad" ~params:[] []))

let test_func_cfg_queries () =
  let f = diamond () in
  Alcotest.(check string) "entry" "entry" (Label.to_string (Func.entry_label f));
  Alcotest.(check (list string)) "succs of entry" [ "a"; "b" ]
    (List.map Label.to_string (Func.successors f (lbl "entry")));
  Alcotest.(check (list string)) "preds of join" [ "a"; "b" ]
    (List.map Label.to_string (Func.predecessors f (lbl "join")));
  Alcotest.(check int) "instr count" 3 (Func.instr_count f)

let test_func_reverse_postorder () =
  let f = diamond () in
  let rpo = List.map Label.to_string (Func.reverse_postorder f) in
  (* entry first, join last; a and b in between. *)
  (match rpo with
   | "entry" :: rest ->
     Alcotest.(check string) "join last" "join"
       (List.nth rest (List.length rest - 1))
   | _ -> Alcotest.fail "entry not first in RPO");
  Alcotest.(check int) "all blocks" 4 (List.length rpo)

let test_func_reachable_excludes_orphan () =
  let f =
    Func.make ~name:"orphan" ~params:[]
      [
        Block.make (lbl "entry") [] (Block.Return None);
        Block.make (lbl "dead") [] (Block.Return None);
      ]
  in
  Alcotest.(check bool) "dead not reachable" false
    (Label.Set.mem (lbl "dead") (Func.reachable f))

let test_func_defined_and_all_vars () =
  let f = diamond () in
  let defined = vars_to_strings (Var.Set.elements (Func.defined_vars f)) in
  Alcotest.(check (list string)) "defined (sorted)" [ "c"; "p"; "x" ] defined;
  let all = vars_to_strings (Var.Set.elements (Func.all_vars f)) in
  Alcotest.(check (list string)) "all vars" [ "c"; "p"; "x" ] all

let test_replace_block () =
  let f = diamond () in
  let b = Func.find_block f (lbl "join") in
  let b' = Block.with_body b [ Instr.Nop ] in
  let f' = Func.replace_block f b' in
  Alcotest.(check int) "one more instr" 4 (Func.instr_count f')

(* --- Builder ---------------------------------------------------------- *)

let test_builder_basic () =
  let b = Builder.create ~name:"f" ~params:[ "a" ] in
  let a = Builder.param b 0 in
  let two = Builder.const b 2 in
  let r = Builder.binop b Instr.Mul a two in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  Alcotest.(check int) "two instrs" 2 (Func.instr_count f);
  Alcotest.(check string) "name" "f" f.Func.name;
  match Validate.check f with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_builder_fresh_names_distinct () =
  let b = Builder.create ~name:"f" ~params:[] in
  let v1 = Builder.fresh_var b "t" in
  let v2 = Builder.fresh_var b "t" in
  Alcotest.(check bool) "distinct" false (Var.equal v1 v2)

let test_builder_open_block_rejected () =
  let b = Builder.create ~name:"f" ~params:[] in
  Alcotest.(check bool) "finish with open block raises" true
    (match Builder.finish b with
     | (_ : Func.t) -> false
     | exception Invalid_argument _ -> true)

let test_builder_emit_after_close_rejected () =
  let b = Builder.create ~name:"f" ~params:[] in
  Builder.ret b None;
  Alcotest.(check bool) "emit without block raises" true
    (match Builder.nop b with
     | () -> false
     | exception Invalid_argument _ -> true)

let test_builder_param_out_of_range () =
  let b = Builder.create ~name:"f" ~params:[ "x" ] in
  Alcotest.(check bool) "param 3 raises" true
    (match Builder.param b 3 with
     | (_ : Var.t) -> false
     | exception Invalid_argument _ -> true)

(* --- Printer / Parser -------------------------------------------------- *)

let test_roundtrip_diamond () =
  let f = diamond () in
  let s = Printer.func_to_string f in
  let f' = Parser.parse_func s in
  Alcotest.(check string) "print-parse-print fixpoint" s
    (Printer.func_to_string f')

let test_roundtrip_all_kernels () =
  List.iter
    (fun (name, f) ->
      let s = Printer.func_to_string f in
      let f' = Parser.parse_func s in
      Alcotest.(check string) (name ^ " roundtrip") s (Printer.func_to_string f'))
    Tdfa_workload.Kernels.all

let test_parser_comments_and_negatives () =
  let src =
    "# a comment\n\
     func @f() {\n\
     entry:  # trailing comment\n\
     %x = const -7\n\
     ret %x\n\
     }\n"
  in
  let f = Parser.parse_func src in
  Alcotest.(check int) "one instr" 1 (Func.instr_count f)

let test_parser_errors () =
  let expect_error src =
    match Parser.parse_func src with
    | (_ : Func.t) -> Alcotest.fail "expected parse error"
    | exception Parser.Error _ -> ()
  in
  expect_error "func @f() { entry: ret";
  expect_error "func @f() { entry: %x = bogus %y ret }";
  expect_error "func f() { entry: ret }";
  expect_error "";
  expect_error "func @f() { entry: %x = const 1 }";
  (* Structural errors Func.make and Program.of_funcs would reject with
     Invalid_argument: no blocks, a repeated label, a repeated name. *)
  expect_error "func @f() {\n}\n";
  expect_error "func @f() { a: ret a: ret }";
  expect_error "func @f() { a: ret } func @f() { a: ret }"

(* Label and name checks are hashed: a 50k-block function parses in
   linear time, and a repeated label at its end is still caught. *)
let test_parser_many_blocks () =
  let n = 50_000 in
  let buf = Buffer.create (n * 12) in
  Buffer.add_string buf "func @f() {\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "b%d: ret\n" i)
  done;
  let body = Buffer.contents buf in
  let f = Parser.parse_func (body ^ "}\n") in
  Alcotest.(check int) "all blocks" n (List.length f.Func.blocks);
  match Parser.parse_func (body ^ "b0: ret\n}\n") with
  | (_ : Func.t) -> Alcotest.fail "expected duplicate-label error"
  | exception Parser.Error _ -> ()

let test_parser_program_multifunc () =
  let src = "func @a() {\nentry:\n  ret\n}\nfunc @b() {\nentry:\n  ret\n}\n" in
  let p = Parser.parse_program src in
  Alcotest.(check int) "two functions" 2 (List.length (Program.funcs p))

let test_program_lookup () =
  let f = diamond () in
  let p = Program.of_funcs [ f ] in
  Alcotest.(check bool) "find" true (Program.find p "diamond" <> None);
  Alcotest.(check bool) "missing" true (Program.find p "nope" = None);
  Alcotest.(check string) "main falls back to first" "diamond"
    (Program.main p).Func.name

(* --- Validate ---------------------------------------------------------- *)

let test_validate_ok () =
  match Validate.check (diamond ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_validate_missing_target () =
  let f =
    Func.make ~name:"bad" ~params:[]
      [ Block.make (lbl "entry") [] (Block.Jump (lbl "nowhere")) ]
  in
  Alcotest.(check bool) "error reported" true (Validate.errors f <> [])

let test_validate_undefined_var () =
  let f =
    Func.make ~name:"bad" ~params:[]
      [
        Block.make (lbl "entry")
          [ Instr.Unop (Instr.Mov, var "x", var "ghost") ]
          (Block.Return None);
      ]
  in
  Alcotest.(check bool) "undefined use reported" true
    (List.exists (fun e -> contains e "ghost") (Validate.errors f))

(* --- QCheck properties -------------------------------------------------- *)

let arb_binop =
  QCheck2.Gen.oneofl
    Instr.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Slt; Sle; Seq; Sne ]

let qcheck_eval_total =
  QCheck2.Test.make ~name:"eval_binop is total" ~count:500
    QCheck2.Gen.(triple arb_binop (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (op, a, b) ->
      let (_ : int) = Instr.eval_binop op a b in
      true)

let qcheck_map_vars_id =
  QCheck2.Test.make ~name:"map_vars Fun.id is identity" ~count:200
    QCheck2.Gen.(
      let gv = map (fun c -> Var.of_string (String.make 1 c)) (char_range 'a' 'z') in
      oneof
        [
          map (fun (v, k) -> Instr.Const (v, k)) (pair gv small_int);
          map (fun (d, s) -> Instr.Unop (Instr.Mov, d, s)) (pair gv gv);
          map
            (fun (d, (a, b)) -> Instr.Binop (Instr.Add, d, a, b))
            (pair gv (pair gv gv));
          map (fun (v, b) -> Instr.Store (v, b, 0)) (pair gv gv);
        ])
    (fun i -> Instr.equal i (Instr.map_vars Fun.id i))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ir.var-label",
      [
        tc "var basics" `Quick test_var_basics;
        tc "var pp" `Quick test_var_pp;
        tc "label basics" `Quick test_label_basics;
      ] );
    ( "ir.instr",
      [
        tc "def/uses binop" `Quick test_instr_def_uses;
        tc "store has no def" `Quick test_instr_store_no_def;
        tc "duplicate uses preserved" `Quick test_instr_duplicate_uses_preserved;
        tc "call" `Quick test_instr_call;
        tc "map_uses keeps def" `Quick test_instr_map_uses_keeps_def;
        tc "map_def keeps uses" `Quick test_instr_map_def_keeps_uses;
        tc "eval_binop" `Quick test_eval_binop;
        tc "eval_unop" `Quick test_eval_unop;
        tc "binop names roundtrip" `Quick test_binop_names_roundtrip;
        tc "to_string" `Quick test_instr_to_string;
        QCheck_alcotest.to_alcotest qcheck_eval_total;
        QCheck_alcotest.to_alcotest qcheck_map_vars_id;
      ] );
    ( "ir.func",
      [
        tc "block successors" `Quick test_block_successors;
        tc "duplicate labels rejected" `Quick test_func_duplicate_labels_rejected;
        tc "empty rejected" `Quick test_func_empty_rejected;
        tc "cfg queries" `Quick test_func_cfg_queries;
        tc "reverse postorder" `Quick test_func_reverse_postorder;
        tc "reachability" `Quick test_func_reachable_excludes_orphan;
        tc "defined/all vars" `Quick test_func_defined_and_all_vars;
        tc "replace block" `Quick test_replace_block;
      ] );
    ( "ir.builder",
      [
        tc "basic" `Quick test_builder_basic;
        tc "fresh names distinct" `Quick test_builder_fresh_names_distinct;
        tc "open block rejected" `Quick test_builder_open_block_rejected;
        tc "emit after close rejected" `Quick test_builder_emit_after_close_rejected;
        tc "param out of range" `Quick test_builder_param_out_of_range;
      ] );
    ( "ir.parser",
      [
        tc "diamond roundtrip" `Quick test_roundtrip_diamond;
        tc "all kernels roundtrip" `Quick test_roundtrip_all_kernels;
        tc "comments and negatives" `Quick test_parser_comments_and_negatives;
        tc "parse errors" `Quick test_parser_errors;
        tc "multi-function program" `Quick test_parser_program_multifunc;
        tc "program lookup" `Quick test_program_lookup;
        tc "many blocks" `Quick test_parser_many_blocks;
      ] );
    ( "ir.validate",
      [
        tc "well-formed accepted" `Quick test_validate_ok;
        tc "missing target" `Quick test_validate_missing_target;
        tc "undefined var" `Quick test_validate_undefined_var;
      ] );
  ]
