(* Tests of the register allocator: interference construction, colouring
   validity under every policy, policy behaviour, spill-code correctness,
   equivalence with the reference allocator (Regalloc_reference) and the
   shape of the allocation spans. *)

open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_regalloc

let var = Var.of_string
let lbl = Label.of_string
let layout = Layout.make ~rows:8 ~cols:8 ()

(* A chooser's mask of forbidden cells on [layout]. *)
let mask cells =
  let m = Array.make (Layout.num_cells layout) false in
  List.iter (fun c -> m.(c) <- true) cells;
  m

(* --- Interference --------------------------------------------------------- *)

let straight () =
  Func.make ~name:"s" ~params:[]
    [
      Block.make (lbl "entry")
        [
          Instr.Const (var "a", 1);
          Instr.Const (var "b", 2);
          Instr.Binop (Instr.Add, var "c", var "a", var "b");
        ]
        (Block.Return (Some (var "c")));
    ]

let test_interference_basic () =
  let f = straight () in
  let g = Interference.build f (Liveness.analyze f) in
  Alcotest.(check bool) "a-b interfere" true (Interference.interferes g (var "a") (var "b"));
  Alcotest.(check bool) "a-c do not" false (Interference.interferes g (var "a") (var "c"));
  Alcotest.(check bool) "symmetric" true (Interference.interferes g (var "b") (var "a"))

let test_interference_move_exempt () =
  let f =
    Func.make ~name:"mv" ~params:[ var "a" ]
      [
        Block.make (lbl "entry")
          [ Instr.Unop (Instr.Mov, var "b", var "a") ]
          (Block.Return (Some (var "b")));
      ]
  in
  let g = Interference.build f (Liveness.analyze f) in
  Alcotest.(check bool) "move pair does not interfere" false
    (Interference.interferes g (var "a") (var "b"))

let test_interference_params () =
  let f =
    Func.make ~name:"p" ~params:[ var "x"; var "y" ]
      [
        Block.make (lbl "entry")
          [ Instr.Binop (Instr.Add, var "z", var "x", var "y") ]
          (Block.Return (Some (var "z")));
      ]
  in
  let g = Interference.build f (Liveness.analyze f) in
  Alcotest.(check bool) "params interfere" true
    (Interference.interferes g (var "x") (var "y"))

let test_interference_edge_count () =
  let f = straight () in
  let g = Interference.build f (Liveness.analyze f) in
  Alcotest.(check int) "one edge" 1 (Interference.num_edges g);
  Alcotest.(check int) "degree of a" 1 (Interference.degree g (var "a"))

(* --- Allocation validity: the fundamental property ------------------------- *)

(* Any two simultaneously-live variables must get different cells. *)
let assert_valid_allocation name (result : Alloc.result) =
  let func = result.Alloc.func in
  let live = Liveness.analyze func in
  let cell v = Assignment.cell_of_var result.Alloc.assignment v in
  let check_set s =
    let cells =
      Var.Set.elements s
      |> List.filter_map cell
    in
    let distinct = List.sort_uniq Int.compare cells in
    if List.length cells <> List.length distinct then
      Alcotest.failf "%s: overlapping lives share a cell" name
  in
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      check_set (Liveness.live_in live l);
      Array.iteri (fun i _ -> check_set (Liveness.live_after_instr live l i)) b.Block.body)
    func.Func.blocks;
  (* Every variable of the rewritten function is assigned. *)
  Var.Set.iter
    (fun v ->
      if cell v = None then
        Alcotest.failf "%s: %s unassigned" name (Var.to_string v))
    (Func.all_vars func);
  ignore func

let test_allocation_valid_all_kernels_all_policies () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun policy ->
          let r = Alloc.allocate f layout ~policy in
          assert_valid_allocation
            (Printf.sprintf "%s/%s" name (Policy.name policy))
            r)
        Policy.all)
    Tdfa_workload.Kernels.all

let test_allocation_preserves_semantics () =
  (* Allocation itself never rewrites code unless spilling. With an ample
     RF no kernel spills, and the allocated function is the input. *)
  List.iter
    (fun (name, f) ->
      let r = Alloc.allocate f layout ~policy:Policy.First_fit in
      Alcotest.(check int) (name ^ " no spills") 0
        (Var.Set.cardinal r.Alloc.spilled);
      Alcotest.(check int) (name ^ " one round") 1 r.Alloc.rounds)
    Tdfa_workload.Kernels.all

(* --- Policies --------------------------------------------------------------- *)

let test_first_fit_prefers_low_cells () =
  let c = Policy.make_chooser Policy.First_fit layout in
  Alcotest.(check (option int)) "first free" (Some 0)
    (Policy.choose c ~forbidden:(mask []) ~weight:1.0);
  Alcotest.(check (option int)) "skips forbidden" (Some 2)
    (Policy.choose c ~forbidden:(mask [ 0; 1 ]) ~weight:1.0)

let test_round_robin_advances () =
  let c = Policy.make_chooser Policy.Round_robin layout in
  let pick () = Policy.choose c ~forbidden:(mask []) ~weight:1.0 in
  Alcotest.(check (option int)) "first" (Some 0) (pick ());
  Alcotest.(check (option int)) "second" (Some 1) (pick ());
  Alcotest.(check (option int)) "third" (Some 2) (pick ())

let test_random_seeded_deterministic () =
  let picks seed =
    let c = Policy.make_chooser (Policy.Random seed) layout in
    List.init 10 (fun _ ->
        Policy.choose c ~forbidden:(mask []) ~weight:1.0)
  in
  Alcotest.(check bool) "same seed same picks" true (picks 1 = picks 1);
  Alcotest.(check bool) "different seeds differ" true (picks 1 <> picks 2)

let test_chessboard_black_first () =
  let c = Policy.make_chooser Policy.Chessboard layout in
  (* The first 32 picks (with previous picks forbidden) are all black. *)
  let forbidden = mask [] in
  for k = 1 to 32 do
    match Policy.choose c ~forbidden ~weight:1.0 with
    | Some cell ->
      Alcotest.(check int)
        (Printf.sprintf "pick %d black" k)
        0
        (Layout.chessboard_color layout cell);
      forbidden.(cell) <- true
    | None -> Alcotest.fail "ran out of cells early"
  done;
  (* The 33rd pick must be white. *)
  match Policy.choose c ~forbidden ~weight:1.0 with
  | Some cell ->
    Alcotest.(check int) "overflow goes white" 1 (Layout.chessboard_color layout cell)
  | None -> Alcotest.fail "no cell"

let test_thermal_spread_separates_hot_vars () =
  let c = Policy.make_chooser Policy.Thermal_spread layout in
  (* Two heavy variables should land far apart. *)
  let p1 = Policy.choose c ~forbidden:(mask []) ~weight:1000.0 in
  let p2 = Policy.choose c ~forbidden:(mask []) ~weight:1000.0 in
  match (p1, p2) with
  | Some a, Some b ->
    Alcotest.(check bool) "far apart" true (Layout.manhattan layout a b >= 7)
  | _, _ -> Alcotest.fail "no picks"

let test_bank_pack_fills_bank_first () =
  let c = Policy.make_chooser (Policy.Bank_pack 4) layout in
  (* The first 16 picks all land in bank 0 (columns 0-1). *)
  let forbidden = mask [] in
  for k = 1 to 16 do
    match Policy.choose c ~forbidden ~weight:1.0 with
    | Some cell ->
      Alcotest.(check int)
        (Printf.sprintf "pick %d in bank 0" k)
        0
        (Policy.bank_of_cell layout ~banks:4 cell);
      forbidden.(cell) <- true
    | None -> Alcotest.fail "ran out of cells"
  done;
  (* The 17th pick spills into bank 1. *)
  match Policy.choose c ~forbidden ~weight:1.0 with
  | Some cell ->
    Alcotest.(check int) "overflow to bank 1" 1
      (Policy.bank_of_cell layout ~banks:4 cell)
  | None -> Alcotest.fail "no cell"

let test_measured_policy_avoids_hot_cells () =
  (* One measured-hot corner: the next assignment round avoids it. *)
  let temps = Array.make 64 320.0 in
  temps.(0) <- 360.0;
  temps.(1) <- 355.0;
  temps.(8) <- 355.0;
  let c = Policy.make_chooser (Policy.Measured temps) layout in
  match Policy.choose c ~forbidden:(mask []) ~weight:1.0 with
  | Some cell ->
    Alcotest.(check bool) "first pick far from the hot corner" true
      (Layout.manhattan layout cell 0 > 3)
  | None -> Alcotest.fail "no cell"

let test_measured_policy_spreads_within_round () =
  let temps = Array.make 64 320.0 in
  let c = Policy.make_chooser (Policy.Measured temps) layout in
  let p1 = Policy.choose c ~forbidden:(mask []) ~weight:1.0 in
  let p2 = Policy.choose c ~forbidden:(mask []) ~weight:1.0 in
  match (p1, p2) with
  | Some a, Some b ->
    Alcotest.(check bool) "second pick keeps distance" true
      (Layout.manhattan layout a b >= 4)
  | _, _ -> Alcotest.fail "no picks"

let test_bank_of_cell () =
  Alcotest.(check int) "col 0 -> bank 0" 0 (Policy.bank_of_cell layout ~banks:4 0);
  Alcotest.(check int) "col 7 -> bank 3" 3 (Policy.bank_of_cell layout ~banks:4 7);
  Alcotest.(check int) "col 3 -> bank 1" 1 (Policy.bank_of_cell layout ~banks:4 3)

let test_choose_none_when_all_forbidden () =
  let all = mask (Layout.cells layout) in
  List.iter
    (fun p ->
      let c = Policy.make_chooser p layout in
      Alcotest.(check (option int))
        (Policy.name p ^ " returns None")
        None
        (Policy.choose c ~forbidden:all ~weight:1.0))
    Policy.all

(* --- Assignment -------------------------------------------------------------- *)

let test_assignment_basics () =
  let a = Assignment.add (Assignment.add Assignment.empty (var "x") 3) (var "y") 3 in
  Alcotest.(check (option int)) "lookup" (Some 3) (Assignment.cell_of_var a (var "x"));
  Alcotest.(check (option int)) "missing" None (Assignment.cell_of_var a (var "z"));
  Alcotest.(check (list int)) "cells dedup" [ 3 ] (Assignment.cells_in_use a);
  Alcotest.(check int) "size" 2 (Assignment.size a)

(* --- Spilling ------------------------------------------------------------------ *)

let run_value f = (Tdfa_exec.Interp.run_func f).Tdfa_exec.Interp.return_value

let low_memory o =
  List.filter (fun (a, _) -> a < Spill.base_address) o.Tdfa_exec.Interp.memory

let test_spill_preserves_semantics () =
  List.iter
    (fun (name, f) ->
      (* Spill the two most-used variables. *)
      let ud = Use_def.build f in
      let by_use =
        Var.Set.elements (Func.defined_vars f)
        |> List.filter (fun v -> not (List.exists (Var.equal v) f.Func.params))
        |> List.sort (fun a b ->
               Int.compare (Use_def.static_use_count ud b)
                 (Use_def.static_use_count ud a))
      in
      let chosen = List.filteri (fun i _ -> i < 2) by_use in
      let f' = Spill.rewrite f (Var.Set.of_list chosen) in
      (match Validate.check f' with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%s: invalid after spill:\n%s" name e);
      let o0 = Tdfa_exec.Interp.run_func f in
      let o1 = Tdfa_exec.Interp.run_func f' in
      Alcotest.(check (option int))
        (name ^ " return value") o0.Tdfa_exec.Interp.return_value
        o1.Tdfa_exec.Interp.return_value;
      Alcotest.(check bool)
        (name ^ " memory below spill area") true
        (low_memory o0 = low_memory o1))
    Tdfa_workload.Kernels.all

let test_spill_empty_set_is_identity () =
  let f = straight () in
  let f' = Spill.rewrite f Var.Set.empty in
  Alcotest.(check string) "identity" (Printer.func_to_string f)
    (Printer.func_to_string f')

let test_spill_removes_long_range () =
  let f = Tdfa_workload.Kernels.fib () in
  let live0 = Liveness.analyze f in
  ignore live0;
  (* Spilling a loop-carried variable adds loads/stores. *)
  let f' = Spill.rewrite f (Var.Set.singleton (var "t0")) in
  Alcotest.(check bool) "more instructions" true
    (Func.instr_count f' > Func.instr_count f);
  Alcotest.(check (option int)) "fib value unchanged" (run_value f) (run_value f')

let test_spill_param () =
  let b = Builder.create ~name:"pf" ~params:[ "x" ] in
  let x = Builder.param b 0 in
  let one = Builder.const b 1 in
  let r = Builder.binop b Instr.Add x one in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  let f' = Spill.rewrite f (Var.Set.singleton (var "x")) in
  (match Validate.check f' with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let o = Tdfa_exec.Interp.run_func ~args:[ 41 ] f' in
  Alcotest.(check (option int)) "param spilled, value kept" (Some 42)
    o.Tdfa_exec.Interp.return_value

let test_forced_spilling_small_rf () =
  (* A 2x2 register file cannot hold high_pressure's 24 live variables:
     the allocator must spill and still produce a valid, semantics-
     preserving result. *)
  let tiny = Layout.make ~rows:2 ~cols:2 () in
  let f = Tdfa_workload.Kernels.high_pressure ~live:8 ~iters:8 () in
  let r = Alloc.allocate f tiny ~policy:Policy.First_fit in
  Alcotest.(check bool) "spilled something" true
    (not (Var.Set.is_empty r.Alloc.spilled));
  assert_valid_allocation "tiny-rf" r;
  Alcotest.(check (option int)) "semantics preserved" (run_value f)
    (run_value r.Alloc.func)

let test_spill_temps_unique_across_rounds () =
  (* A 2x1 file spills in several rounds; each round's temporaries must
     be fresh names, or unrelated short live ranges would merge into one
     variable for liveness and interference. *)
  let two = Layout.make ~rows:2 ~cols:1 () in
  let allocated =
    List.filter
      (fun (name, f) ->
        match Alloc.allocate f two ~policy:Policy.First_fit with
        | exception Failure _ -> false
        | r ->
          let defs = Hashtbl.create 64 in
          Func.iter_instrs
            (fun _ _ i ->
              match Instr.def i with
              | Some v
                when String.starts_with ~prefix:Spill.temp_prefix
                       (Var.to_string v) ->
                if Hashtbl.mem defs v then
                  Alcotest.failf "%s: %s defined twice" name (Var.to_string v);
                Hashtbl.add defs v ()
              | Some _ | None -> ())
            r.Alloc.func;
          Alcotest.(check bool) (name ^ " spilled in several rounds") true
            (r.Alloc.rounds > 2);
          Alcotest.(check (option int)) (name ^ " semantics preserved")
            (run_value f) (run_value r.Alloc.func);
          true)
      Tdfa_workload.Kernels.all
  in
  Alcotest.(check bool) "most kernels allocate" true
    (List.length allocated >= 12)

let test_one_cell_fails_fast () =
  (* Spill code needs two cells at once, so a one-cell file must refuse
     after the first colouring instead of re-spilling until the round
     cap (each round roughly doubled the code: fib reached 80k
     instructions by round 12). *)
  let one = Layout.make ~rows:1 ~cols:1 () in
  List.iter
    (fun (name, f) ->
      let words = Gc.minor_words () and t0 = Unix.gettimeofday () in
      (match Alloc.allocate f one ~policy:Policy.First_fit with
      | _ -> Alcotest.failf "%s: allocated on a one-cell file" name
      | exception Failure msg ->
        Alcotest.(check bool)
          (name ^ " message names 1 cell and 2 needed")
          true
          (String.starts_with ~prefix:"Alloc.allocate: the register file has 1 cell"
             msg
          && String.ends_with ~suffix:"spill code needs 2 cells at once" msg));
      Alcotest.(check bool) (name ^ " under 1 s") true
        (Unix.gettimeofday () -. t0 < 1.0);
      Alcotest.(check bool) (name ^ " bounded allocation") true
        (Gc.minor_words () -. words < 2e7))
    Tdfa_workload.Kernels.all

(* --- Re-assignment (ref [3]) ------------------------------------------------ *)

let weights_table weights v =
  match List.assoc_opt (Var.to_string v) weights with
  | Some w -> w
  | None -> 1.0

let test_reassign_never_worsens_cost () =
  List.iter
    (fun (name, f) ->
      let r = Alloc.allocate f layout ~policy:Policy.First_fit in
      let weights = Alloc.default_weights r.Alloc.func in
      let before = Reassign.cost layout ~weights r.Alloc.assignment in
      let improved = Reassign.improve layout ~weights r.Alloc.assignment in
      let after = Reassign.cost layout ~weights improved in
      if after > before +. 1e-9 then
        Alcotest.failf "%s: reassignment worsened the cost" name)
    Tdfa_workload.Kernels.all

let test_reassign_spreads_clustered_assignment () =
  (* Two hot variables packed into adjacent cells should be pulled
     apart. *)
  let a = Assignment.of_bindings [ (var "h1", 0); (var "h2", 1) ] in
  let weights = weights_table [ ("h1", 100.0); ("h2", 100.0) ] in
  let improved = Reassign.improve layout ~weights a in
  match
    ( Assignment.cell_of_var improved (var "h1"),
      Assignment.cell_of_var improved (var "h2") )
  with
  | Some c1, Some c2 ->
    Alcotest.(check bool) "pulled apart" true (Layout.manhattan layout c1 c2 > 4)
  | _, _ -> Alcotest.fail "variables lost"

let test_reassign_preserves_validity () =
  let f = Tdfa_workload.Kernels.horner () in
  let r = Alloc.allocate f layout ~policy:Policy.First_fit in
  let weights = Alloc.default_weights r.Alloc.func in
  let improved = Reassign.improve layout ~weights r.Alloc.assignment in
  (* All variables still assigned; interfering variables still distinct. *)
  assert_valid_allocation "reassigned"
    { r with Alloc.assignment = improved }

let test_reassign_deterministic () =
  let f = Tdfa_workload.Kernels.fir () in
  let r = Alloc.allocate f layout ~policy:Policy.First_fit in
  let weights = Alloc.default_weights r.Alloc.func in
  let a1 = Reassign.improve ~seed:7 layout ~weights r.Alloc.assignment in
  let a2 = Reassign.improve ~seed:7 layout ~weights r.Alloc.assignment in
  Alcotest.(check bool) "same result" true
    (Assignment.bindings a1 = Assignment.bindings a2)

let test_allocation_deterministic () =
  let f = Tdfa_workload.Kernels.matmul () in
  let a1 = Alloc.allocate f layout ~policy:Policy.Thermal_spread in
  let a2 = Alloc.allocate f layout ~policy:Policy.Thermal_spread in
  Alcotest.(check bool) "same assignment" true
    (Assignment.bindings a1.Alloc.assignment = Assignment.bindings a2.Alloc.assignment)

(* --- Differential battery against the reference allocator ----------------- *)

module Ref = Regalloc_reference

let tiny = Layout.make ~rows:2 ~cols:2 ()
let gen_func = Tdfa_workload.Generator.gen_func ()
let indices (b : Block.t) = List.init (Array.length b.Block.body) Fun.id

(* Boundary facts and the iteration count equal the Var.Set fixpoint's;
   every point, from the getters and from one walk per block, equals
   the replay from that fixpoint's live-out. *)
let prop_liveness_matches_replay =
  QCheck2.Test.make
    ~name:"per-instruction liveness == Var.Set fixpoint and replay"
    ~count:200 ~print:Func_shapes.print Func_shapes.gen (fun f ->
      let live = Liveness.analyze f and r = Ref.liveness f in
      let num = Liveness.numbering live in
      let to_set s =
        Var.Set.of_list
          (List.filter
             (fun v -> Bits.mem s (Numbering.id num v))
             (Var.Set.elements (Func.all_vars f)))
      in
      Liveness.iterations live = r.Ref.iterations
      && Liveness.max_pressure live = Ref.max_pressure r f
      && List.for_all
           (fun (b : Block.t) ->
             let l = b.Block.label in
             let walked = Array.make (Array.length b.Block.body) None in
             Liveness.walk live l (fun i d after ->
                 walked.(i) <- Some (d, to_set after));
             Var.Set.equal (Liveness.live_in live l) (Ref.live_in r l)
             && Var.Set.equal (Liveness.live_out live l) (Ref.live_out r l)
             && Var.Set.equal
                  (to_set (Liveness.live_in_bits live l))
                  (Ref.live_in r l)
             && List.for_all
                  (fun i ->
                    let after = Ref.live_after r f l i in
                    let def =
                      match Instr.def b.Block.body.(i) with
                      | Some d -> Numbering.id num d
                      | None -> -1
                    in
                    Var.Set.equal (Liveness.live_after_instr live l i) after
                    && Var.Set.equal
                         (Liveness.live_before_instr live l i)
                         (Ref.live_before r f l i)
                    &&
                    match walked.(i) with
                    | Some (d, s) -> d = def && Var.Set.equal s after
                    | None -> false)
                  (indices b))
           f.Func.blocks)

let prop_interference_matches_reference =
  QCheck2.Test.make ~name:"interference graph == reference" ~count:200
    ~print:Func_shapes.print Func_shapes.gen (fun f ->
      let g = Interference.build f (Liveness.analyze f)
      and r = Ref.interference f (Ref.liveness f) in
      List.equal Var.equal (Interference.vars g) (Ref.vars r)
      && List.for_all
           (fun v ->
             Var.Set.equal (Interference.neighbors g v) (Ref.neighbors r v)
             && Interference.degree g v = Var.Set.cardinal (Ref.neighbors r v))
           (Ref.vars r))

(* On the 8x8 file and on a 2x2 one, where most functions spill and
   simplify takes the weight/degree path. The reference recomputes
   every degree at every simplify step, so the functions of more than
   63 variables get a property of their own with fewer cases. *)
let coloring_matches_reference ~name ~count gen =
  QCheck2.Test.make ~name ~count ~print:Func_shapes.print gen (fun f ->
      let g = Interference.build f (Liveness.analyze f)
      and r = Ref.interference f (Ref.liveness f) in
      let weights = Alloc.default_weights f in
      List.for_all
        (fun layout ->
          List.for_all
            (fun policy ->
              let a = Coloring.run g layout ~policy ~weights
              and b = Ref.coloring r layout ~policy ~weights in
              Assignment.bindings a.Coloring.assignment
              = Assignment.bindings b.Coloring.assignment
              && Var.Set.equal a.Coloring.spilled b.Coloring.spilled)
            Policy.all)
        [ layout; tiny ])

let prop_coloring_matches_reference =
  coloring_matches_reference ~name:"colouring == reference, every policy"
    ~count:200 Func_shapes.narrow

let prop_coloring_wide_matches_reference =
  coloring_matches_reference
    ~name:"colouring == reference, every policy, multi-word rows" ~count:3
    Func_shapes.wide

(* The weights sum exactly as Use_def.weighted_access_count does: the
   defs in program order, then the instruction uses and the terminator
   uses, the two partial sums added last. Sums of frequencies are exact
   below 2^53, so half the cases nest loops of up to a million trips,
   where block frequencies reach 10^18 and the order of the additions
   shows in the rounding. *)
let prop_weights_match_use_def =
  QCheck2.Test.make ~name:"default weights == Use_def, bit for bit" ~count:200
    ~print:Func_shapes.print
    (QCheck2.Gen.frequency
       [
         (1, Func_shapes.gen);
         ( 1,
           Tdfa_workload.Generator.gen_func ~max_depth:3 ~max_trip:1_000_000
             () );
       ])
    (fun f ->
      let w = Alloc.default_weights f in
      let ud = Use_def.build f and loops = Loops.analyze f in
      Var.Set.for_all
        (fun v ->
          Int64.equal
            (Int64.bits_of_float (w v))
            (Int64.bits_of_float (Use_def.weighted_access_count ud loops v)))
        (Func.all_vars f))

(* The whole allocator — printed function, assignment, spills, rounds
   and pressure — on the benchmark's corpus shape, at 8x8 and 2x2 under
   every policy. *)
let same_allocation f layout policy =
  let attempt allocate =
    match allocate f layout ~policy with
    | r -> Some r
    | exception Failure _ -> None
  in
  match
    ( attempt (fun f layout ~policy -> Alloc.allocate f layout ~policy),
      attempt (fun f layout ~policy -> Ref.allocate f layout ~policy) )
  with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some a, Some b ->
    String.equal
      (Printer.func_to_string a.Alloc.func)
      (Printer.func_to_string b.Alloc.func)
    && Assignment.bindings a.Alloc.assignment
       = Assignment.bindings b.Alloc.assignment
    && Var.Set.equal a.Alloc.spilled b.Alloc.spilled
    && a.Alloc.rounds = b.Alloc.rounds
    && a.Alloc.max_pressure = b.Alloc.max_pressure

(* The reference colours every spill round of the 2x2 file in about a
   second, hence fewer cases there. *)
let allocate_corpus_shape ~name ~count layout =
  QCheck2.Test.make ~name ~count ~print:Func_shapes.print
    (Tdfa_workload.Generator.gen_func ~max_pool:44 ~max_depth:2
       ~max_length:10 ())
    (fun f ->
      List.for_all (fun policy -> same_allocation f layout policy) Policy.all)

let prop_allocate_corpus_shape =
  allocate_corpus_shape
    ~name:"allocate == reference, corpus shape, 8x8, every policy" ~count:40
    layout

let prop_allocate_corpus_shape_spilling =
  allocate_corpus_shape
    ~name:"allocate == reference, corpus shape, 2x2, every policy" ~count:4
    tiny

(* On the 2x2, 2x1 and 3x1 files some kernels spill for more than
   [max_rounds]; both allocators must then give up. *)
let test_allocate_matches_reference () =
  let spilled = ref 0 in
  let same name layout policy f =
    let name = Printf.sprintf "%s/%s" name (Policy.name policy) in
    let attempt allocate =
      match allocate f layout ~policy with
      | r -> Some r
      | exception Failure _ -> None
    in
    match
      ( attempt (fun f layout ~policy -> Alloc.allocate f layout ~policy),
        attempt (fun f layout ~policy -> Ref.allocate f layout ~policy) )
    with
    | None, None -> ()
    | Some _, None | None, Some _ -> Alcotest.failf "%s: only one gave up" name
    | Some a, Some b ->
      let bindings r =
        List.map
          (fun (v, c) -> (Var.to_string v, c))
          (Assignment.bindings r.Alloc.assignment)
      in
      let spills r = List.map Var.to_string (Var.Set.elements r.Alloc.spilled) in
      if b.Alloc.rounds > 1 then incr spilled;
      Alcotest.(check string) (name ^ " function")
        (Printer.func_to_string b.Alloc.func)
        (Printer.func_to_string a.Alloc.func);
      Alcotest.(check (list (pair string int)))
        (name ^ " assignment") (bindings b) (bindings a);
      Alcotest.(check (list string)) (name ^ " spilled") (spills b) (spills a);
      Alcotest.(check int) (name ^ " rounds") b.Alloc.rounds a.Alloc.rounds;
      Alcotest.(check int) (name ^ " max pressure") b.Alloc.max_pressure
        a.Alloc.max_pressure
  in
  List.iter
    (fun (name, f) ->
      List.iter (fun policy -> same name layout policy f) Policy.all;
      List.iter
        (fun (rows, cols) ->
          same
            (Printf.sprintf "%s@%dx%d" name rows cols)
            (Layout.make ~rows ~cols ()) Policy.First_fit f)
        [ (2, 2); (2, 1); (3, 1) ])
    Tdfa_workload.Kernels.all;
  Alcotest.(check bool) "some kernels spill" true (!spilled > 0)

(* --- Allocation budget ------------------------------------------------------ *)

(* Minor words allocated by [f ()]; Gc.minor_words boxes its own result,
   so a back-to-back pair measures that overhead. *)
let minor_words f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before -. overhead

(* Counting guards, not timing guards: register allocation and the
   verify gate over the 16 kernels on the 8x8 file allocate a pinned
   number of minor words. The budgets are the words measured when the
   bitset analyses went in (127,886 and 37,128) plus 10 % headroom; the
   Var.Set versions took 462k and 129k. *)
let test_allocation_budget () =
  let kernels = List.map snd Tdfa_workload.Kernels.all in
  let allocate () =
    List.iter
      (fun f -> ignore (Alloc.allocate f layout ~policy:Policy.First_fit))
      kernels
  in
  let check () =
    List.iter (fun f -> ignore (Tdfa_verify.Check.func f)) kernels
  in
  allocate ();
  check ();
  let within name budget words =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f words within %.0f" name words budget)
      true (words <= budget)
  in
  within "Alloc.allocate" 140_675.0 (minor_words allocate);
  within "Check.func" 40_841.0 (minor_words check)

(* --- Observability ---------------------------------------------------------- *)

(* One span per phase and round, in order, with the graph and spill counts
   of that round. *)
let test_allocate_span_shape () =
  let module Obs = Tdfa_obs.Obs in
  let f = Tdfa_workload.Kernels.high_pressure ~live:8 ~iters:8 () in
  let obs = Obs.memory () in
  let r = Alloc.allocate ~obs f tiny ~policy:Policy.First_fit in
  Alcotest.(check bool) "several rounds" true (r.Alloc.rounds > 1);
  let spans =
    List.filter_map
      (fun e ->
        match e.Obs.phase with
        | Obs.Complete _ -> Some (e.Obs.name, e.Obs.args)
        | _ -> None)
      (Obs.events obs)
  in
  let int_arg key args =
    match List.assoc_opt key args with
    | Some (Obs.Int n) -> n
    | _ -> Alcotest.failf "missing integer argument %s" key
  in
  let rec rounds func all_spilled round = function
    | ("regalloc.liveness", a1) :: ("regalloc.interference", a2)
      :: ("regalloc.coloring", a3) :: rest ->
      List.iter
        (fun args ->
          Alcotest.(check int) "round" round (int_arg "round" args))
        [ a1; a2; a3 ];
      let live = Liveness.analyze func in
      let g = Interference.build func live in
      Alcotest.(check int) "nodes" (Interference.size g) (int_arg "nodes" a2);
      Alcotest.(check int) "edges" (Interference.num_edges g)
        (int_arg "edges" a2);
      let spilled =
        (Coloring.run g tiny ~policy:Policy.First_fit
           ~weights:(Alloc.default_weights func))
          .Coloring.spilled
      in
      Alcotest.(check int) "spilled" (Var.Set.cardinal spilled)
        (int_arg "spilled" a3);
      (match rest with
       | [] ->
         Alcotest.(check int) "last round" r.Alloc.rounds round;
         Alcotest.(check bool) "nothing left to spill" true
           (Var.Set.is_empty spilled)
       | ("regalloc.spill", a4) :: rest ->
         Alcotest.(check int) "round" round (int_arg "round" a4);
         rounds
           (Spill.rewrite
              ~slot_base:(Var.Set.cardinal all_spilled)
              func spilled)
           (Var.Set.union all_spilled spilled)
           (round + 1) rest
       | (name, _) :: _ -> Alcotest.failf "unexpected span %s" name)
    | _ -> Alcotest.fail "expected liveness, interference, colouring"
  in
  rounds f Var.Set.empty 1 spans

let suite =
  let tc = Alcotest.test_case in
  [
    ( "regalloc.interference",
      [
        tc "basic edges" `Quick test_interference_basic;
        tc "move exempt" `Quick test_interference_move_exempt;
        tc "params interfere" `Quick test_interference_params;
        tc "edge count" `Quick test_interference_edge_count;
      ] );
    ( "regalloc.validity",
      [
        tc "all kernels x all policies" `Quick
          test_allocation_valid_all_kernels_all_policies;
        tc "no spurious spills" `Quick test_allocation_preserves_semantics;
        tc "deterministic" `Quick test_allocation_deterministic;
      ] );
    ( "regalloc.policy",
      [
        tc "first-fit low cells" `Quick test_first_fit_prefers_low_cells;
        tc "round-robin advances" `Quick test_round_robin_advances;
        tc "random seeded" `Quick test_random_seeded_deterministic;
        tc "chessboard black first" `Quick test_chessboard_black_first;
        tc "thermal-spread separates" `Quick test_thermal_spread_separates_hot_vars;
        tc "bank-pack fills bank first" `Quick test_bank_pack_fills_bank_first;
        tc "measured avoids hot cells" `Quick test_measured_policy_avoids_hot_cells;
        tc "measured spreads in round" `Quick test_measured_policy_spreads_within_round;
        tc "bank of cell" `Quick test_bank_of_cell;
        tc "none when full" `Quick test_choose_none_when_all_forbidden;
      ] );
    ( "regalloc.assignment",
      [ tc "basics" `Quick test_assignment_basics ] );
    ( "regalloc.reassign",
      [
        tc "never worsens cost" `Quick test_reassign_never_worsens_cost;
        tc "spreads clustered" `Quick test_reassign_spreads_clustered_assignment;
        tc "preserves validity" `Quick test_reassign_preserves_validity;
        tc "deterministic" `Quick test_reassign_deterministic;
      ] );
    ( "regalloc.spill",
      [
        tc "semantics preserved (all kernels)" `Quick test_spill_preserves_semantics;
        tc "empty set identity" `Quick test_spill_empty_set_is_identity;
        tc "loop-carried spill" `Quick test_spill_removes_long_range;
        tc "spilled parameter" `Quick test_spill_param;
        tc "forced spilling on tiny RF" `Quick test_forced_spilling_small_rf;
      ] );
    ( "regalloc.small-reg-files",
      [
        tc "one-cell RF fails fast" `Quick test_one_cell_fails_fast;
        tc "spill temporaries unique across rounds" `Quick
          test_spill_temps_unique_across_rounds;
      ] );
    ( "regalloc.reference",
      [
        tc "allocate == reference (all kernels)" `Quick
          test_allocate_matches_reference;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_liveness_matches_replay;
            prop_interference_matches_reference;
            prop_coloring_matches_reference;
            prop_coloring_wide_matches_reference;
            prop_weights_match_use_def;
            prop_allocate_corpus_shape;
            prop_allocate_corpus_shape_spilling;
          ] );
    ( "regalloc.budget",
      [
        tc "minor words of allocate and Check.func (16 kernels)" `Quick
          test_allocation_budget;
      ] );
    ("regalloc.obs", [ tc "span shape" `Quick test_allocate_span_shape ]);
  ]
