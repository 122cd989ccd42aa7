(* Tests of the data-flow framework: the generic solver, liveness,
   reaching definitions, dominators, loops and the use/def index. *)

open Tdfa_ir
open Tdfa_dataflow

let var = Var.of_string
let lbl = Label.of_string

(* A two-block loop:
   entry: x=0; n=10; one=1; jmp header
   header: c = slt x n ; br c body exit
   body:   x = add x one ; jmp header
   exit:   ret x *)
let loop_func () =
  Func.make ~name:"loop" ~params:[]
    [
      Block.make (lbl "entry")
        [
          Instr.Const (var "x", 0);
          Instr.Const (var "n", 10);
          Instr.Const (var "one", 1);
        ]
        (Block.Jump (lbl "header"));
      Block.make (lbl "header")
        [ Instr.Binop (Instr.Slt, var "c", var "x", var "n") ]
        (Block.Branch (var "c", lbl "body", lbl "exit"));
      Block.make (lbl "body")
        [ Instr.Binop (Instr.Add, var "x", var "x", var "one") ]
        (Block.Jump (lbl "header"));
      Block.make (lbl "exit") [] (Block.Return (Some (var "x")));
    ]

let straight_line () =
  Func.make ~name:"line" ~params:[ var "a" ]
    [
      Block.make (lbl "entry")
        [
          Instr.Const (var "k", 3);
          Instr.Binop (Instr.Add, var "b", var "a", var "k");
          Instr.Binop (Instr.Mul, var "c", var "b", var "b");
        ]
        (Block.Return (Some (var "c")));
    ]

(* --- Liveness -------------------------------------------------------- *)

let set_to_strings s = List.map Var.to_string (Var.Set.elements s)

let test_liveness_loop () =
  let f = loop_func () in
  let live = Liveness.analyze f in
  Alcotest.(check (list string)) "live into header" [ "n"; "one"; "x" ]
    (set_to_strings (Liveness.live_in live (lbl "header")));
  Alcotest.(check (list string)) "live out of body" [ "n"; "one"; "x" ]
    (set_to_strings (Liveness.live_out live (lbl "body")));
  Alcotest.(check (list string)) "live into exit" [ "x" ]
    (set_to_strings (Liveness.live_in live (lbl "exit")));
  Alcotest.(check (list string)) "nothing live into entry" []
    (set_to_strings (Liveness.live_in live (lbl "entry")))

let test_liveness_per_instr () =
  let f = straight_line () in
  let live = Liveness.analyze f in
  (* After "k = 3": a and k live (b = a + k next). *)
  Alcotest.(check (list string)) "after instr 0" [ "a"; "k" ]
    (set_to_strings (Liveness.live_after_instr live (lbl "entry") 0));
  (* After "b = a + k": only b. *)
  Alcotest.(check (list string)) "after instr 1" [ "b" ]
    (set_to_strings (Liveness.live_after_instr live (lbl "entry") 1));
  Alcotest.(check (list string)) "after instr 2" [ "c" ]
    (set_to_strings (Liveness.live_after_instr live (lbl "entry") 2))

let test_liveness_pressure () =
  let f = straight_line () in
  let live = Liveness.analyze f in
  Alcotest.(check int) "pressure 2" 2 (Liveness.max_pressure live)

let test_liveness_dead_def () =
  let f =
    Func.make ~name:"dead" ~params:[]
      [
        Block.make (lbl "entry")
          [ Instr.Const (var "d", 1); Instr.Const (var "r", 2) ]
          (Block.Return (Some (var "r")));
      ]
  in
  let live = Liveness.analyze f in
  Alcotest.(check bool) "dead def never live" false
    (Var.Set.mem (var "d") (Liveness.live_after_instr live (lbl "entry") 0))

(* Property: a variable used by an instruction is live before it. *)
let test_liveness_uses_live_before () =
  List.iter
    (fun (_, f) ->
      let live = Liveness.analyze f in
      Func.iter_instrs
        (fun l i instr ->
          let before = Liveness.live_before_instr live l i in
          List.iter
            (fun u ->
              if not (Var.Set.mem u before) then
                Alcotest.failf "use %s not live before %s.%d"
                  (Var.to_string u) (Label.to_string l) i)
            (Instr.uses instr))
        f)
    Tdfa_workload.Kernels.all

(* --- Reaching definitions --------------------------------------------- *)

let test_reaching_defs_loop () =
  let f = loop_func () in
  let rd = Reaching_defs.analyze f in
  (* Both definitions of x (entry init and body increment) reach the
     header. *)
  let defs_x = Reaching_defs.defs_of_var_at rd (lbl "header") (var "x") in
  Alcotest.(check int) "two defs of x reach header" 2
    (Reaching_defs.Def_set.cardinal defs_x);
  (* Only those two definitions exist for x at exit as well. *)
  let defs_x_exit = Reaching_defs.defs_of_var_at rd (lbl "exit") (var "x") in
  Alcotest.(check int) "defs of x at exit" 2
    (Reaching_defs.Def_set.cardinal defs_x_exit)

let test_reaching_defs_kill () =
  let f =
    Func.make ~name:"kill" ~params:[]
      [
        Block.make (lbl "entry")
          [ Instr.Const (var "x", 1); Instr.Const (var "x", 2) ]
          (Block.Jump (lbl "next"));
        Block.make (lbl "next") [] (Block.Return (Some (var "x")));
      ]
  in
  let rd = Reaching_defs.analyze f in
  let defs = Reaching_defs.defs_of_var_at rd (lbl "next") (var "x") in
  Alcotest.(check int) "second def kills first" 1
    (Reaching_defs.Def_set.cardinal defs);
  match Reaching_defs.Def_set.choose_opt defs with
  | Some d -> Alcotest.(check int) "surviving def is index 1" 1 d.Reaching_defs.Def.index
  | None -> Alcotest.fail "no def"

(* --- Dominators ---------------------------------------------------------- *)

let test_dominators_loop () =
  let f = loop_func () in
  let dom = Dominators.analyze f in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun l -> Dominators.dominates dom (lbl "entry") l) (Func.labels f));
  Alcotest.(check bool) "header dominates body" true
    (Dominators.dominates dom (lbl "header") (lbl "body"));
  Alcotest.(check bool) "body does not dominate header" false
    (Dominators.dominates dom (lbl "body") (lbl "header"));
  Alcotest.(check (option string)) "idom of body" (Some "header")
    (Option.map Label.to_string (Dominators.idom dom (lbl "body")));
  Alcotest.(check (option string)) "idom of entry" None
    (Option.map Label.to_string (Dominators.idom dom (lbl "entry")))

let test_dominators_diamond_join () =
  let f =
    Func.make ~name:"d" ~params:[ var "p" ]
      [
        Block.make (lbl "entry") [] (Block.Branch (var "p", lbl "a", lbl "b"));
        Block.make (lbl "a") [] (Block.Jump (lbl "j"));
        Block.make (lbl "b") [] (Block.Jump (lbl "j"));
        Block.make (lbl "j") [] (Block.Return None);
      ]
  in
  let dom = Dominators.analyze f in
  Alcotest.(check (option string)) "idom of join skips branches" (Some "entry")
    (Option.map Label.to_string (Dominators.idom dom (lbl "j")));
  Alcotest.(check bool) "a does not dominate join" false
    (Dominators.dominates dom (lbl "a") (lbl "j"))

(* --- Loops ----------------------------------------------------------------- *)

let test_loops_detects_natural_loop () =
  let f = loop_func () in
  let loops = Loops.analyze f in
  Alcotest.(check int) "one loop" 1 (List.length (Loops.loops loops));
  match Loops.loops loops with
  | [ l ] ->
    Alcotest.(check string) "header" "header" (Label.to_string l.Loops.header);
    Alcotest.(check bool) "body contains body block" true
      (Label.Set.mem (lbl "body") l.Loops.body);
    Alcotest.(check bool) "body excludes exit" false
      (Label.Set.mem (lbl "exit") l.Loops.body)
  | _ -> Alcotest.fail "expected one loop"

let test_loops_trip_count_exact () =
  let f = loop_func () in
  let loops = Loops.analyze f in
  Alcotest.(check int) "trip count 10" 10 (Loops.trip_count loops (lbl "header"))

let test_loops_depth_and_frequency () =
  let f = Tdfa_workload.Kernels.matmul ~n:4 () in
  let loops = Loops.analyze f in
  let depths =
    List.map (fun l -> Loops.depth loops l) (Func.labels f)
  in
  Alcotest.(check int) "max depth 3" 3 (List.fold_left max 0 depths);
  (* The innermost body executes 4^3 times. *)
  let innermost =
    List.fold_left
      (fun acc l -> Float.max acc (Loops.frequency loops l))
      0.0 (Func.labels f)
  in
  Alcotest.(check (float 1.0)) "inner frequency 64" 64.0 innermost

let test_loops_counted_loop_trips () =
  (* The kernel scaffold must be recognised for various counts. *)
  List.iter
    (fun count ->
      let b = Builder.create ~name:"t" ~params:[] in
      let (_ : Var.t) =
        Tdfa_workload.Kernels.counted_loop b ~count (fun _ -> Builder.nop b)
      in
      Builder.ret b None;
      let f = Builder.finish b in
      let loops = Loops.analyze f in
      match Loops.loops loops with
      | [ l ] ->
        Alcotest.(check int)
          (Printf.sprintf "trip %d" count)
          count
          (Loops.trip_count loops l.Loops.header)
      | _ -> Alcotest.fail "expected exactly one loop")
    [ 1; 2; 7; 100 ]

let test_loops_none_in_straight_line () =
  let loops = Loops.analyze (straight_line ()) in
  Alcotest.(check int) "no loops" 0 (List.length (Loops.loops loops));
  Alcotest.(check (float 0.001)) "frequency 1" 1.0
    (Loops.frequency loops (lbl "entry"))

(* --- Constant propagation -------------------------------------------------- *)

let test_const_prop_straight_line () =
  let f = straight_line () in
  let cp = Const_prop.analyze f in
  Alcotest.(check bool) "k constant" true
    (Const_prop.Value.equal (Const_prop.Value.Const 3)
       (Const_prop.value_out cp (lbl "entry") (var "k")));
  (* b = a + k with a a parameter: varying. *)
  Alcotest.(check bool) "b varying" true
    (Const_prop.Value.equal Const_prop.Value.Varying
       (Const_prop.value_out cp (lbl "entry") (var "b")))

let test_const_prop_folds_chain () =
  let f =
    Func.make ~name:"chain" ~params:[]
      [
        Block.make (lbl "entry")
          [
            Instr.Const (var "a", 6);
            Instr.Const (var "b", 7);
            Instr.Binop (Instr.Mul, var "c", var "a", var "b");
            Instr.Unop (Instr.Neg, var "d", var "c");
          ]
          (Block.Return (Some (var "d")));
      ]
  in
  let cp = Const_prop.analyze f in
  Alcotest.(check bool) "c = 42" true
    (Const_prop.Value.equal (Const_prop.Value.Const 42)
       (Const_prop.value_out cp (lbl "entry") (var "c")));
  Alcotest.(check bool) "d = -42" true
    (Const_prop.Value.equal (Const_prop.Value.Const (-42))
       (Const_prop.value_out cp (lbl "entry") (var "d")))

let test_const_prop_loop_variable_varying () =
  let f = loop_func () in
  let cp = Const_prop.analyze f in
  Alcotest.(check bool) "x varying in header" true
    (Const_prop.Value.equal Const_prop.Value.Varying
       (Const_prop.value_in cp (lbl "header") (var "x")));
  Alcotest.(check bool) "n stays constant" true
    (Const_prop.Value.equal (Const_prop.Value.Const 10)
       (Const_prop.value_in cp (lbl "header") (var "n")))

let test_const_prop_diamond_agreement () =
  (* The same constant on both branches survives the join; different
     constants do not. *)
  let f =
    Func.make ~name:"d" ~params:[ var "p" ]
      [
        Block.make (lbl "entry") [] (Block.Branch (var "p", lbl "a", lbl "b"));
        Block.make (lbl "a")
          [ Instr.Const (var "s", 5); Instr.Const (var "t", 1) ]
          (Block.Jump (lbl "j"));
        Block.make (lbl "b")
          [ Instr.Const (var "s", 5); Instr.Const (var "t", 2) ]
          (Block.Jump (lbl "j"));
        Block.make (lbl "j") [] (Block.Return (Some (var "s")));
      ]
  in
  let cp = Const_prop.analyze f in
  Alcotest.(check bool) "agreeing constant" true
    (Const_prop.Value.equal (Const_prop.Value.Const 5)
       (Const_prop.value_in cp (lbl "j") (var "s")));
  Alcotest.(check bool) "conflicting constant" true
    (Const_prop.Value.equal Const_prop.Value.Varying
       (Const_prop.value_in cp (lbl "j") (var "t")))

let test_value_join () =
  let open Const_prop.Value in
  Alcotest.(check bool) "unknown join" true (equal (Const 1) (join Unknown (Const 1)));
  Alcotest.(check bool) "same consts" true (equal (Const 2) (join (Const 2) (Const 2)));
  Alcotest.(check bool) "diff consts" true (equal Varying (join (Const 1) (Const 2)));
  Alcotest.(check bool) "varying wins" true (equal Varying (join Varying (Const 1)))

(* --- Use/def ------------------------------------------------------------- *)

let test_use_def_counts () =
  let f = loop_func () in
  let ud = Use_def.build f in
  Alcotest.(check int) "x defined twice" 2 (List.length (Use_def.defs ud (var "x")));
  (* x used by: slt (header), add (body), ret (exit terminator). *)
  Alcotest.(check int) "x used three times" 3 (Use_def.static_use_count ud (var "x"));
  Alcotest.(check int) "n defined once" 1 (List.length (Use_def.defs ud (var "n")))

let test_use_def_weighted () =
  let f = loop_func () in
  let ud = Use_def.build f in
  let loops = Loops.analyze f in
  let wx = Use_def.weighted_access_count ud loops (var "x") in
  let wn = Use_def.weighted_access_count ud loops (var "n") in
  Alcotest.(check bool) "loop variable outweighs loop bound" true (wx > wn)

let test_dominators_nested_loops () =
  let f = Tdfa_workload.Kernels.matmul ~n:2 () in
  let dom = Dominators.analyze f in
  (* Every block's immediate dominator (when present) strictly dominates
     it, and dominance is transitive down the idom chain. *)
  List.iter
    (fun l ->
      match Dominators.idom dom l with
      | None ->
        Alcotest.(check string) "only entry has no idom" "entry"
          (Label.to_string l)
      | Some d ->
        Alcotest.(check bool) "idom dominates" true (Dominators.dominates dom d l);
        Alcotest.(check bool) "not self" false (Label.equal d l))
    (Func.labels f)

let test_liveness_on_multiproc_functions () =
  (* Each function of a program is analysed independently; parameters are
     live on entry when used. *)
  let p = Tdfa_workload.Kernels.multiproc_program () in
  List.iter
    (fun (f : Func.t) ->
      let live = Liveness.analyze f in
      Func.iter_instrs
        (fun l i instr ->
          List.iter
            (fun u ->
              if not (Var.Set.mem u (Liveness.live_before_instr live l i)) then
                Alcotest.failf "%s: use not live" (Var.to_string u))
            (Instr.uses instr))
        f)
    (Tdfa_ir.Program.funcs p)

let test_loops_nested_bodies_nest () =
  let f = Tdfa_workload.Kernels.matmul () in
  let loops = Loops.analyze f in
  let all = Loops.loops loops in
  Alcotest.(check int) "three loops" 3 (List.length all);
  (* Sorted by body size, each smaller body is contained in the next. *)
  let sorted =
    List.sort
      (fun a b ->
        Int.compare
          (Label.Set.cardinal a.Loops.body)
          (Label.Set.cardinal b.Loops.body))
      all
  in
  let rec nested = function
    | a :: (b :: _ as rest) ->
      Label.Set.subset a.Loops.body b.Loops.body && nested rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "loops nest" true (nested sorted)

let test_const_value_through_moves () =
  (* Trip recovery sees through the copies a splitting pass inserts. *)
  let f =
    Func.make ~name:"mv" ~params:[]
      [
        Block.make (lbl "entry")
          [
            Instr.Const (var "i", 0);
            Instr.Const (var "n", 6);
            Instr.Const (var "one", 1);
          ]
          (Block.Jump (lbl "header"));
        Block.make (lbl "header")
          [ Instr.Binop (Instr.Slt, var "c", var "i", var "n") ]
          (Block.Branch (var "c", lbl "body", lbl "exit"));
        Block.make (lbl "body")
          [
            Instr.Unop (Instr.Mov, var "one_copy", var "one");
            Instr.Binop (Instr.Add, var "i", var "i", var "one_copy");
          ]
          (Block.Jump (lbl "header"));
        Block.make (lbl "exit") [] (Block.Return None);
      ]
  in
  let loops = Loops.analyze f in
  Alcotest.(check (option int)) "trip recovered through the move" (Some 6)
    (Loops.exact_trip_count loops (lbl "header"))

(* --- Generic solver ---------------------------------------------------------- *)

let test_solver_iterations_bounded () =
  (* The liveness fixpoint on every kernel stabilises in a few passes. *)
  List.iter
    (fun (name, f) ->
      let live = Liveness.analyze f in
      if Liveness.iterations live > 20 then
        Alcotest.failf "%s took %d iterations" name (Liveness.iterations live))
    Tdfa_workload.Kernels.all

(* --- Dominators and loops == reference ------------------------------------- *)

module R = Loops_reference

(* Generated functions, with unreachable blocks half the time. *)
let gen_cfg =
  QCheck2.Gen.(
    map2
      (fun f seed -> if seed mod 2 = 0 then f else Func_shapes.add_unreachable f seed)
      (Tdfa_workload.Generator.gen_func ~max_depth:3 ())
      (int_range 0 1_000_000))

let same_loop (a : Loops.loop) (b : R.Loops.loop) =
  Label.equal a.Loops.header b.R.Loops.header
  && Label.Set.equal a.Loops.body b.R.Loops.body
  && List.equal Label.equal a.Loops.back_edges b.R.Loops.back_edges

let prop_loops_match_reference =
  QCheck2.Test.make ~name:"dominators and loops == reference" ~count:200
    ~print:Func_shapes.print gen_cfg (fun f ->
      let dom = Dominators.analyze f and rdom = R.Dominators.analyze f in
      let loops = Loops.analyze f and rloops = R.Loops.analyze f in
      List.compare_lengths (Loops.loops loops) (R.Loops.loops rloops) = 0
      && List.for_all2 same_loop (Loops.loops loops) (R.Loops.loops rloops)
      && List.for_all
           (fun (lp : Loops.loop) ->
             let h = lp.Loops.header in
             Loops.exact_trip_count loops h = R.Loops.exact_trip_count rloops h
             && Loops.trip_count loops h = R.Loops.trip_count rloops h)
           (Loops.loops loops)
      && List.for_all
           (fun l ->
             Label.Set.equal
               (Dominators.dominators dom l)
               (R.Dominators.dominators rdom l)
             && Option.equal Label.equal (Dominators.idom dom l)
                  (R.Dominators.idom rdom l)
             && Loops.depth loops l = R.Loops.depth rloops l
             && Int64.equal
                  (Int64.bits_of_float (Loops.frequency loops l))
                  (Int64.bits_of_float (R.Loops.frequency rloops l)))
           (Func.labels f))

(* Blocks reachable from the entry once [a] is taken out of the CFG. *)
let reachable_without (f : Func.t) a =
  let seen = Label.Tbl.create 16 in
  let rec visit l =
    if Func.mem_block f l && (not (Label.equal l a))
       && not (Label.Tbl.mem seen l)
    then begin
      Label.Tbl.add seen l ();
      List.iter visit (Func.successors f l)
    end
  in
  visit (Func.entry_label f);
  seen

(* Among reachable blocks, a dominates b iff removing a cuts b off from
   the entry. *)
let prop_dominance_brute_force =
  QCheck2.Test.make ~name:"dominance == reachability with the block removed"
    ~count:100 ~print:Func_shapes.print gen_cfg (fun f ->
      let dom = Dominators.analyze f in
      let reach = Func.postorder f in
      List.for_all
        (fun a ->
          let cut = reachable_without f a in
          List.for_all
            (fun b -> Dominators.dominates dom a b = not (Label.Tbl.mem cut b))
            reach)
        reach)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "dataflow.liveness",
      [
        tc "loop live sets" `Quick test_liveness_loop;
        tc "per-instruction" `Quick test_liveness_per_instr;
        tc "max pressure" `Quick test_liveness_pressure;
        tc "dead def" `Quick test_liveness_dead_def;
        tc "uses live before (all kernels)" `Quick test_liveness_uses_live_before;
        tc "multiproc functions" `Quick test_liveness_on_multiproc_functions;
        tc "fixpoint terminates fast" `Quick test_solver_iterations_bounded;
      ] );
    ( "dataflow.reaching-defs",
      [
        tc "loop defs merge" `Quick test_reaching_defs_loop;
        tc "redefinition kills" `Quick test_reaching_defs_kill;
      ] );
    ( "dataflow.dominators",
      [
        tc "loop dominators" `Quick test_dominators_loop;
        tc "diamond idom" `Quick test_dominators_diamond_join;
        tc "nested loops" `Quick test_dominators_nested_loops;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_loops_match_reference; prop_dominance_brute_force ] );
    ( "dataflow.loops",
      [
        tc "natural loop" `Quick test_loops_detects_natural_loop;
        tc "exact trip count" `Quick test_loops_trip_count_exact;
        tc "depth and frequency" `Quick test_loops_depth_and_frequency;
        tc "counted_loop trips" `Quick test_loops_counted_loop_trips;
        tc "straight line" `Quick test_loops_none_in_straight_line;
        tc "nesting" `Quick test_loops_nested_bodies_nest;
        tc "const through moves" `Quick test_const_value_through_moves;
      ] );
    ( "dataflow.const-prop",
      [
        tc "straight line" `Quick test_const_prop_straight_line;
        tc "folds chain" `Quick test_const_prop_folds_chain;
        tc "loop variable varying" `Quick test_const_prop_loop_variable_varying;
        tc "diamond agreement" `Quick test_const_prop_diamond_agreement;
        tc "value join" `Quick test_value_join;
      ] );
    ( "dataflow.use-def",
      [
        tc "counts" `Quick test_use_def_counts;
        tc "loop weighting" `Quick test_use_def_weighted;
      ] );
  ]
