(* The certified bracket's contract, tested from three sides: the lemma
   the upper bound needs (a lifted sweep never lowers a state), a
   certificate check that can fail (a stopped iterate is no
   post-fixpoint), and the bounds themselves containing both the
   stopped fixpoint and a tight-delta reference run — per cell, on
   random programs and on every example kernel — with the lower bound
   equal to the fixpoint's peak map bit for bit. *)

open Tdfa_regalloc
open Tdfa_core
open Tdfa_workload
open Tdfa_absint

let layout = Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ()

let config_of func =
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  let f = alloc.Alloc.func in
  ( Tdfa.Driver.transfer_config (Tdfa.Driver.default ~layout) f
      alloc.Alloc.assignment,
    f )

let gen_corpus_func = Generator.gen_func ~max_pool:44 ~max_depth:3 ()

(* --- The monotonicity lemma ---------------------------------------------- *)

(* Knaster–Tarski needs the sweep monotone in the exit states it starts
   from: lifting them by any nonnegative vector can lower no instruction
   state and no exit of the next sweep. Checked on the flat core after a
   few ordinary sweeps, with a tolerance far below any bound's slack
   for float rounding. *)
let sweep_from ws u =
  ignore (Flat_core.post_fixpoint ws u);
  let _, states, exits = Flat_core.finalize ws in
  (Array.copy states, Array.copy exits)

let prop_lift_monotone =
  QCheck2.Test.make ~name:"lifted exits never lower the next sweep" ~count:60
    QCheck2.Gen.(triple gen_corpus_func (int_range 0 4) int)
    (fun (func, warm, seed) ->
      let tc, f = config_of func in
      let ws = Flat_core.prepare ~join:Flat_core.Join_max ~delta_k:0.05 tc f in
      for _ = 1 to warm do
        ignore (Flat_core.pass ws)
      done;
      let x = Array.copy (Flat_core.exits ws) in
      let rng = Random.State.make [| seed |] in
      let lifted = Array.map (fun v -> v +. Random.State.float rng 5.0) x in
      let states_x, exits_x = sweep_from ws x in
      let states_l, exits_l = sweep_from ws lifted in
      let below a b = Array.for_all2 (fun x y -> not (x > y +. 1e-9)) a b in
      below states_x states_l && below exits_x exits_l)

(* --- The certificate check can fail --------------------------------------- *)

(* A loop kernel stopped early (delta = 1 K) is still rising: its exits
   are no post-fixpoint, and lifting them by nothing must be rejected. *)
let certificate_not_vacuous () =
  let tc, f = config_of (Kernels.fir ()) in
  let settings = { Analysis.default_settings with Analysis.delta_k = 1.0 } in
  let ws = Flat_core.prepare ~join:Flat_core.Join_max ~delta_k:1.0 tc f in
  let iterations, _, _, _ =
    Analysis.sweep ~settings tc f (fun () -> Flat_core.pass ws)
  in
  Alcotest.(check bool) "the stopped run took several sweeps" true
    (iterations > 1);
  Alcotest.(check bool) "the unlifted stopped exits are rejected" false
    (Flat_core.post_fixpoint ws (Array.copy (Flat_core.exits ws)))

(* Outside the monotone regime (an explicit step too long for diffusion
   to stay a convex combination) the Kleene argument fails, so nothing
   is certified — and an unbounded bound still renders as valid JSON. *)
let unstable_step_uncertified () =
  let alloc =
    Alloc.allocate (Kernels.fib ()) layout ~policy:Policy.First_fit
  in
  let f = alloc.Alloc.func in
  let tc =
    Tdfa.Driver.transfer_config
      {
        (Tdfa.Driver.default ~layout) with
        Tdfa.Driver.analysis_dt_s = Some 1.0e-4;
      }
      f alloc.Alloc.assignment
  in
  let b = Absint.predict ~max_iterations:40 tc f in
  Alcotest.(check bool) "no finite bound" true
    (b.Absint.peak_lo_k = neg_infinity && b.Absint.peak_hi_k = infinity);
  Alcotest.(check bool) "straddles" true
    (Absint.verdict ~hot_k:Tdfa_lint.Rules.hot_threshold b = Absint.Straddles);
  Alcotest.(check string) "infinite bound is JSON null" "null"
    (Tdfa_serve.Json.to_string (Tdfa_serve.Json.Float b.Absint.peak_hi_k))

(* --- Soundness: the stopped and the reference fixpoint inside [lo, hi] ---- *)

let reference_settings =
  { Analysis.default_settings with Analysis.delta_k = 1e-6; max_iterations = 5000 }

let peak_cells info =
  Thermal_state.to_cell_array (Analysis.peak_map info)

let within ~tol bounds cells =
  let ok = ref true in
  Array.iteri
    (fun c t ->
      if t < bounds.Absint.lo_cells.(c) -. tol
         || t > bounds.Absint.hi_cells.(c) +. tol
      then ok := false)
    cells;
  !ok

(* The lower bound is the stopped fixpoint's peak map, bit for bit; the
   stopped run and the delta = 1e-6 reference (cells given) both lie
   inside [lo, hi] in every cell. *)
let sound tc f bounds reference =
  let stopped = peak_cells (Analysis.info (Analysis.fixpoint tc f)) in
  let bits = Array.map Int64.bits_of_float in
  bits stopped = bits bounds.Absint.lo_cells
  && within ~tol:1e-9 bounds stopped
  && within ~tol:1e-9 bounds reference
  && bounds.Absint.peak_lo_k = Array.fold_left Float.max neg_infinity stopped

let reference_cells tc f =
  peak_cells
    (Analysis.info (Analysis.fixpoint ~settings:reference_settings tc f))

let prop_bounds_contain_fixpoint =
  QCheck2.Test.make ~name:"fixpoint peak within certified bounds" ~count:160
    gen_corpus_func (fun func ->
      let tc, f = config_of func in
      sound tc f (Absint.predict tc f) (reference_cells tc f))

let kernels_within_bounds () =
  List.iter
    (fun (name, func) ->
      let tc, f = config_of func in
      let bounds = Absint.predict tc f in
      let reference = reference_cells tc f in
      Alcotest.(check bool)
        (Printf.sprintf "%s: stopped and reference fixpoints within [lo, hi]"
           name)
        true
        (sound tc f bounds reference);
      Alcotest.(check bool)
        (Printf.sprintf "%s: a certificate was found" name)
        true
        (Float.is_finite bounds.Absint.peak_hi_k);
      (* A certified verdict must agree with the tight reference. *)
      let peak = Array.fold_left Float.max neg_infinity reference in
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

let suite =
  [
    ( "absint",
      [
        Alcotest.test_case "all kernels within bounds" `Quick
          kernels_within_bounds;
        Alcotest.test_case "certificate rejects a stopped iterate" `Quick
          certificate_not_vacuous;
        Alcotest.test_case "unstable step certifies nothing" `Quick
          unstable_step_uncertified;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_lift_monotone; prop_bounds_contain_fixpoint ] );
  ]
