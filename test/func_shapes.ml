(* Function shapes that Generator.gen_func does not draw on its own, for
   the differential batteries of the dense-id analyses: more variables
   than one or two 63-bit words hold, blocks unreachable from the entry,
   parameter-only functions and blocks with empty bodies. *)

open Tdfa_ir
module Gen = QCheck2.Gen

let var = Var.of_string
let lbl = Label.of_string

(* A generated function whose pool alone is [pool] variables, all live
   to the end. *)
let with_pool pool =
  Gen.map
    (fun (seed, depth, length) ->
      Tdfa_workload.Generator.generate
        { Tdfa_workload.Generator.default with
          Tdfa_workload.Generator.seed; pool; depth; length })
    Gen.(triple (int_range 1 1_000_000) (int_range 0 1) (int_range 1 4))

(* [f] plus three blocks no path from the entry reaches. They read and
   write variables of [f] and fresh ones (one read but never written),
   jump into [f] — giving its blocks predecessors the entry never
   reaches — and loop among themselves and on one block. *)
let add_unreachable (f : Func.t) seed =
  let st = Random.State.make [| seed |] in
  let vars = Array.of_list (Var.Set.elements (Func.all_vars f)) in
  let labels = Array.of_list (Func.labels f) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let some () = if Array.length vars = 0 then var "dead_v" else pick vars in
  let a = lbl "dead_a" and b = lbl "dead_b" and c = lbl "dead_c" in
  let dead =
    [
      Block.make a
        [
          Instr.Binop (Instr.Add, var "dead_x", some (), var "dead_u");
          Instr.Unop (Instr.Mov, some (), var "dead_x");
        ]
        (Block.Branch (some (), pick labels, b));
      Block.make b
        [ Instr.Const (some (), 3); Instr.Store (var "dead_x", some (), 0) ]
        (Block.Branch (var "dead_x", a, c));
      Block.make c [] (Block.Branch (some (), c, pick labels));
    ]
  in
  Func.make ~name:f.Func.name ~params:f.Func.params (f.Func.blocks @ dead)

(* [f] with copies between its variables spliced in at random points:
   moves whose source stays live, which the interference graph must not
   join to their destination at the move itself. *)
let add_moves (f : Func.t) seed =
  let st = Random.State.make [| seed |] in
  let vars = Array.of_list (Var.Set.elements (Func.all_vars f)) in
  if Array.length vars < 2 then f
  else
    let pick () = vars.(Random.State.int st (Array.length vars)) in
    Func.map_blocks
      (fun (b : Block.t) ->
        Block.with_body b
          (List.concat_map
             (fun i ->
               if Random.State.int st 3 = 0 then
                 [ i; Instr.Unop (Instr.Mov, pick (), pick ()) ]
               else [ i ])
             (Array.to_list b.Block.body)))
      f

(* [n] parameters and a diamond of blocks with empty bodies: only the
   terminators read anything. *)
let params_only ~max =
  Gen.map
    (fun (n, ret, shape) ->
      let params = List.init n (fun k -> var (Printf.sprintf "p%03d" k)) in
      let p k = List.nth params (k mod n) in
      let blocks =
        match shape with
        | 0 -> [ Block.make (lbl "entry") [] (Block.Return (Some (p ret))) ]
        | 1 -> [ Block.make (lbl "entry") [] (Block.Return None) ]
        | _ ->
          [
            Block.make (lbl "entry") [] (Block.Branch (p 0, lbl "l", lbl "r"));
            Block.make (lbl "l") [] (Block.Jump (lbl "join"));
            Block.make (lbl "r") [] (Block.Branch (p 1, lbl "join", lbl "r"));
            Block.make (lbl "join") [] (Block.Return (Some (p ret)));
          ]
      in
      Func.make ~name:"params_only" ~params blocks)
    Gen.(triple (int_range 1 max) (int_range 0 (max - 1)) (int_range 0 2))

(* Up to two words of variables: the ordinary generator, the same with
   unreachable blocks or copies, and parameter-only functions. *)
let narrow =
  let plain = Tdfa_workload.Generator.gen_func () in
  let seed = Gen.int_range 0 1_000_000 in
  Gen.frequency
    [
      (3, plain);
      (2, Gen.map2 add_unreachable plain seed);
      (2, Gen.map2 add_moves plain seed);
      (1, params_only ~max:70);
    ]

(* More than 63 and more than 126 variables: rows of two and three
   words. *)
let wide =
  Gen.frequency
    [
      (1, Gen.bind (Gen.int_range 64 80) with_pool);
      (1, Gen.bind (Gen.int_range 127 140) with_pool);
      (1, params_only ~max:140);
    ]

let gen = Gen.frequency [ (7, narrow); (2, wide) ]

(* A short description for counterexamples. *)
let print (f : Func.t) = Printer.func_to_string f
