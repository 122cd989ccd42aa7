(* The abstract interpreter's contract, tested from three sides: the
   interval carrier obeys its lattice algebra, the Gauss–Seidel solve it
   leans on is monotone in power (the lemma the upper bound's induction
   needs), and the bounds themselves contain the concrete fixpoint — per
   cell, on random programs and on every example kernel — while the
   interval engine terminates inside its advertised transfer budget. *)

open Tdfa_ir
open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_absint

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

let config_of func =
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let f = alloc.Alloc.func in
  (Driver.transfer_config (Driver.default ~layout) f alloc.Alloc.assignment, f)

let gen_corpus_func = Generator.gen_func ~max_pool:44 ~max_depth:3 ()

(* --- Interval algebra ---------------------------------------------------- *)

let gen_interval =
  QCheck2.Gen.(
    map
      (fun (a, b) -> Interval.make ~lo:(Float.min a b) ~hi:(Float.max a b))
      (pair (float_range 250.0 700.0) (float_range 250.0 700.0)))

let prop_join_algebra =
  QCheck2.Test.make ~name:"interval join is a lattice lub" ~count:200
    QCheck2.Gen.(triple gen_interval gen_interval gen_interval)
    (fun (a, b, c) ->
      let open Interval in
      equal (join a b) (join b a)
      && equal (join a (join b c)) (join (join a b) c)
      && equal (join a a) a
      && leq a (join a b)
      && leq b (join a b)
      && ((not (leq a c && leq b c)) || leq (join a b) c))

let prop_meet_algebra =
  QCheck2.Test.make ~name:"interval meet is a lattice glb" ~count:200
    QCheck2.Gen.(pair gen_interval gen_interval)
    (fun (a, b) ->
      let open Interval in
      let comm =
        match (meet a b, meet b a) with
        | Some m, Some m' -> equal m m'
        | None, None -> true
        | _ -> false
      in
      let glb =
        match meet a b with Some m -> leq m a && leq m b | None -> true
      in
      let absorb_join =
        match meet a (join a b) with Some m -> equal m a | None -> false
      in
      let absorb_meet =
        match meet a b with
        | Some m -> equal (join a m) a
        | None -> true
      in
      comm && glb && absorb_join && absorb_meet)

let prop_widen_covers_join =
  QCheck2.Test.make ~name:"widening covers the join and stabilises"
    ~count:200
    QCheck2.Gen.(pair gen_interval gen_interval)
    (fun (p, n) ->
      let open Interval in
      let cap = make ~lo:200.0 ~hi:800.0 in
      let w = widen ~cap p n in
      leq (join p n) w
      && (not (leq n p))
         || equal (widen ~cap p n) n)

let interval_units () =
  let open Interval in
  Alcotest.(check bool)
    "make rejects inverted bounds" true
    (match make ~lo:2.0 ~hi:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool)
    "make rejects NaN" true
    (match make ~lo:Float.nan ~hi:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let p = point 300.0 in
  Alcotest.(check bool) "point is degenerate" true (width p = 0.0);
  Alcotest.(check bool) "point contains itself" true (contains p 300.0);
  let a = make ~lo:1.0 ~hi:3.0 and b = make ~lo:4.0 ~hi:5.0 in
  Alcotest.(check bool) "disjoint meet is None" true (meet a b = None);
  Alcotest.(check bool)
    "join bridges the gap" true
    (equal (join a b) (make ~lo:1.0 ~hi:5.0))

(* --- The Gauss–Seidel monotonicity lemma --------------------------------- *)

(* The upper bound's induction needs the steady-state solve to be
   monotone in injected power: more heat anywhere can lower no
   temperature. Checked against the flat workspace on the standard
   model, with a tolerance covering the solver's stopping criterion. *)
let prop_gauss_seidel_monotone =
  let model = Tdfa_harness.Common.standard_model in
  let n = Tdfa_thermal.Rc_model.num_nodes model in
  QCheck2.Test.make ~name:"flat Gauss–Seidel solve monotone in power"
    ~count:30
    QCheck2.Gen.(
      pair
        (array_size (return n) (float_range 0.0 0.5))
        (array_size (return n) (float_range 0.0 0.2)))
    (fun (p, d) ->
      let q = Array.mapi (fun i pi -> pi +. d.(i)) p in
      let ws = Tdfa_thermal.Rc_flat.make model in
      let t_p = Array.copy (Tdfa_thermal.Rc_flat.solve_seq ws ~power:p) in
      let t_q = Tdfa_thermal.Rc_flat.solve_seq ws ~power:q in
      let ok = ref true in
      Array.iteri (fun i tp -> if tp > t_q.(i) +. 1e-3 then ok := false) t_p;
      !ok)

(* --- Soundness: fixpoint inside the certified bounds --------------------- *)

let contained ~tol bounds info =
  let pm = Analysis.peak_map info in
  let cells = Tdfa_core.Thermal_state.to_cell_array pm in
  let peak = Array.fold_left Float.max neg_infinity cells in
  let ok = ref true in
  Array.iteri
    (fun c t ->
      if
        t < bounds.Absint.lo_cells.(c) -. tol
        || t > bounds.Absint.hi_cells.(c) +. tol
      then ok := false)
    cells;
  !ok
  && peak >= bounds.Absint.peak_lo_k -. tol
  && peak <= bounds.Absint.peak_hi_k +. tol

let prop_bounds_contain_fixpoint =
  QCheck2.Test.make ~name:"fixpoint peak within certified bounds" ~count:160
    gen_corpus_func (fun func ->
      let tc, f = config_of func in
      let info = Analysis.info (Analysis.fixpoint tc f) in
      let bounds = Absint.predict tc f in
      contained ~tol:1e-6 bounds info)

let kernels_within_bounds () =
  List.iter
    (fun (name, func) ->
      let tc, f = config_of func in
      let info = Analysis.info (Analysis.fixpoint tc f) in
      let bounds = Absint.predict tc f in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fixpoint within [lo, hi]" name)
        true
        (contained ~tol:1e-6 bounds info);
      (* A certified verdict must agree with the ground truth. *)
      let pm = Analysis.peak_map info in
      let peak =
        Array.fold_left Float.max neg_infinity
          (Tdfa_core.Thermal_state.to_cell_array pm)
      in
      let hot_k = Tdfa_lint.Rules.hot_threshold in
      (match Absint.verdict ~hot_k bounds with
      | Absint.Certified_hot ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: certified-hot is really hot" name)
            true (peak >= hot_k)
      | Absint.Certified_cool ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: certified-cool is really cool" name)
            true (peak < hot_k)
      | Absint.Straddles -> ());
      (* Cell-level rules nest: every certified-hot cell is possibly hot. *)
      let certified = Absint.certified_hot_cells ~hot_k bounds in
      let possible = Absint.possibly_hot_cells ~hot_k bounds in
      Alcotest.(check bool)
        (Printf.sprintf "%s: certified cells are possible cells" name)
        true
        (List.for_all (fun c -> List.mem c possible) certified))
    Kernels.all

(* --- The interval engine: termination and exit containment --------------- *)

let prop_iterate_terminates_in_budget =
  QCheck2.Test.make
    ~name:"interval iteration stays within 2·|blocks| transfers" ~count:60
    gen_corpus_func (fun func ->
      let tc, f = config_of func in
      let it = Absint.iterate tc f in
      it.Absint.istats.Absint.transfers
      <= 2 * it.Absint.istats.Absint.iter_blocks
      && it.Absint.istats.Absint.stable)

let prop_iterate_exits_contain_concrete =
  QCheck2.Test.make ~name:"interval exits contain concrete exit states"
    ~count:40 gen_corpus_func (fun func ->
      let tc, f = config_of func in
      let info = Analysis.info (Analysis.fixpoint tc f) in
      let it = Absint.iterate tc f in
      let tol = 1e-6 in
      List.for_all
        (fun (label, ivs) ->
          match Label.Map.find_opt label info.Analysis.exit_states with
          | None -> true
          | Some st ->
              let ok = ref true in
              Array.iteri
                (fun p (iv : Interval.t) ->
                  let v = Tdfa_core.Thermal_state.get st p in
                  if v < iv.Interval.lo -. tol || v > iv.Interval.hi +. tol
                  then ok := false)
                ivs;
              !ok)
        it.Absint.exits)

let suite =
  [
    ( "absint",
      [
        Alcotest.test_case "interval unit algebra" `Quick interval_units;
        Alcotest.test_case "all kernels within bounds" `Quick
          kernels_within_bounds;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_join_algebra;
            prop_meet_algebra;
            prop_widen_covers_join;
            prop_gauss_seidel_monotone;
            prop_bounds_contain_fixpoint;
            prop_iterate_terminates_in_budget;
            prop_iterate_exits_contain_concrete;
          ] );
  ]
