(* The differential battery for the flat thermal core: the flat engine
   (Flat_core, the Analysis.fixpoint default) must be bit-identical to
   the boxed reference engine — same sorted-state fingerprints, same
   iteration counts, same final deltas, same unstable sets, with zero
   tolerance — and the flat steady-state solver (Rc_flat) must replay
   Rc_model.steady_state bitwise on every grid shape and run its inner
   loop without allocating a word. *)

open Tdfa_ir
open Tdfa_core
open Tdfa_regalloc
open Tdfa_workload
open Tdfa_thermal
open Tdfa_floorplan

let layout = Layout.make ~rows:8 ~cols:8 ()
let n = Layout.num_cells layout

let settings =
  {
    Analysis.default_settings with
    Analysis.delta_k = 0.1;
    max_iterations = 100;
  }

let config_of ?(granularity = 2) func assignment =
  Tdfa.Driver.transfer_config
    { (Tdfa.Driver.default ~layout) with Tdfa.Driver.granularity }
    func assignment

let post_ra f =
  let a = Alloc.allocate f layout ~policy:Policy.First_fit in
  (a.Alloc.func, a.Alloc.assignment)

let fingerprint = Tdfa_engine.Engine.fingerprint
let gen_small = Generator.gen_func ~max_pool:10 ~max_depth:1 ~max_length:6 ()

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Deterministic pseudo-random power fields (no Random state shared with
   other suites). *)
let lcg_power ~seed ~scale n =
  let s = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      float_of_int !s /. float_of_int 0x3FFFFFFF *. scale)

(* --- Flat geometry == Thermal_state geometry -------------------------------- *)

let test_grid_matches_thermal_state () =
  List.iter
    (fun (rows, cols) ->
      let layout = Layout.make ~rows ~cols () in
      List.iter
        (fun g ->
          let grid = Flat_grid.make layout ~granularity:g in
          let st = Thermal_state.create layout ~granularity:g ~ambient_k:0.0 in
          Alcotest.(check int) "num_points" (Thermal_state.num_points st)
            grid.Flat_grid.n_points;
          Alcotest.(check (pair int int)) "point rows x cols"
            (Thermal_state.point_rows st, Thermal_state.point_cols st)
            (grid.Flat_grid.point_rows, grid.Flat_grid.point_cols);
          for cell = 0 to Layout.num_cells layout - 1 do
            Alcotest.(check int) "point_of_cell"
              (Thermal_state.point_of_cell st cell)
              grid.Flat_grid.point_of_cell.(cell)
          done;
          for p = 0 to grid.Flat_grid.n_points - 1 do
            Alcotest.(check (float 0.0)) "cells per point"
              (float_of_int (Thermal_state.cells_per_point st p))
              grid.Flat_grid.cells_f.(p)
          done)
        [ 1; 2; 3; 4 ])
    [ (8, 8); (5, 7); (3, 3); (1, 9) ]

(* --- Rc_model ~out buffers --------------------------------------------------- *)

let test_out_buffers_bitwise () =
  let model = Rc_model.build layout Params.default in
  let temps =
    Array.map (fun x -> Params.default.Params.ambient_k +. x)
      (lcg_power ~seed:7 ~scale:20.0 n)
  in
  let power = lcg_power ~seed:13 ~scale:1.0e-3 n in
  let d1 = Rc_model.derivative model ~temps ~power in
  let out = Array.make n nan in
  let d2 = Rc_model.derivative ~out model ~temps ~power in
  Alcotest.(check bool) "derivative ~out returns out" true (d2 == out);
  Alcotest.(check bool) "derivative bitwise" true (bits_equal d1 d2);
  let l1 = Rc_model.leakage_power model ~temps in
  let lout = Array.make n nan in
  let l2 = Rc_model.leakage_power ~out:lout model ~temps in
  Alcotest.(check bool) "leakage bitwise" true (bits_equal l1 l2)

(* --- Rc_flat sequential == Rc_model.steady_state, bitwise -------------------- *)

(* Bitwise, except that NaNs compare by position: the C sweep kernel may
   commute an addition and so carry the other operand's NaN payload. *)
let bits_equal_nan_positions a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         if Float.is_nan x || Float.is_nan y then
           Float.is_nan x && Float.is_nan y
         else Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The sweep kernel's edge logic lives in the first and last node of
   each anti-diagonal and in diagonals of at most two nodes; its vector
   loop takes interior nodes in pairs with a scalar remainder. So the
   battery covers degenerate and skewed shapes (2xN and Nx2 are all rim),
   interiors of odd and even lengths (5x6, 13x17, 64x63, 4x9 has
   exactly one pair), and long single rows and columns. *)
let steady_shapes =
  [
    (8, 8); (1, 1); (1, 9); (9, 1); (3, 7); (7, 3); (64, 64); (2, 31);
    (31, 2); (4, 9); (5, 6); (13, 17); (64, 63); (1, 257); (257, 1);
  ]

let test_solve_seq_bitwise () =
  List.iter
    (fun (rows, cols) ->
      let layout = Layout.make ~rows ~cols () in
      let n = Layout.num_cells layout in
      let model = Rc_model.build layout Params.default in
      let ws = Rc_flat.make model in
      let random seed = lcg_power ~seed ~scale:1.0e-3 n in
      let cases =
        [
          ("zero", Array.make n 0.0, None, None);
          ("uniform", Array.make n 1.0e-4, None, None);
          ( "point source",
            (let p = Array.make n 0.0 in
             p.(5 mod n) <- 1.0e-3;
             p),
            None,
            None );
          ("random", random 42, None, None);
          ("tight tol", random 43, Some 1e-9, None);
          ("capped sweeps", random 44, None, Some 3);
          ("no sweep", random 45, None, Some 0);
          ("one sweep", random 46, None, Some 1);
          ("two sweeps", random 47, None, Some 2);
          ("tol 0 capped", random 48, Some 0.0, Some 25);
          ("tol infinity", random 49, Some infinity, None);
          ( "nan and inf",
            (let p = random 50 in
             p.(n / 3) <- nan;
             p.(2 * n / 3) <- infinity;
             p),
            None,
            None );
          ( "inf",
            (let p = random 51 in
             p.(n / 2) <- infinity;
             p),
            None,
            None );
        ]
      in
      let check name boxed flat =
        Alcotest.(check bool)
          (Printf.sprintf "%dx%d %s bitwise" rows cols name)
          true
          (bits_equal_nan_positions boxed flat)
      in
      List.iter
        (fun (name, power, tol, max_sweeps) ->
          check name
            (Rc_model.steady_state ?tol ?max_sweeps model ~power)
            (Rc_flat.solve_seq ?tol ?max_sweeps ws ~power))
        cases;
      (* Signed zeros: at ambient -0.0 the even diagonals carry a power
         of minus the smallest subnormal, which a conductance sum above
         2 rounds to a node temperature of -0.0. An odd node then has
         rhs -0.0 and four -0.0 neighbour terms, and only the fold's
         leading [0.0 +.] makes it +0.0. *)
      let zero_model =
        Rc_model.build layout
          {
            Params.default with
            Params.ambient_k = -0.0;
            lateral_conductance_w_per_k = 1.0;
            vertical_conductance_w_per_k = 1.0;
          }
      in
      let power =
        Array.init n (fun i ->
            if ((i / cols) + (i mod cols)) land 1 = 0 then -.Float.succ 0.0
            else -0.0)
      in
      check "signed zeros"
        (Rc_model.steady_state zero_model ~power)
        (Rc_flat.solve_seq (Rc_flat.make zero_model) ~power))
    steady_shapes

(* --- The shared leakage solve == two boxed rounds, bitwise --------------------- *)

(* The reference: both leakage feedback rounds written out over the boxed
   solver, with power-gated cells contributing no leakage. *)
let boxed_leakage_rounds ?leak_mask model ~power =
  let ambient = (Rc_model.params model).Params.ambient_k in
  let with_leak temps =
    let leak = Rc_model.leakage_power model ~temps in
    Array.mapi
      (fun i pw ->
        match leak_mask with
        | Some mask when not mask.(i) -> pw
        | Some _ | None -> pw +. leak.(i))
      power
  in
  let first =
    Rc_model.steady_state model
      ~power:(with_leak (Array.make (Array.length power) ambient))
  in
  Rc_model.steady_state model ~power:(with_leak first)

let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53 ]

(* 1x1, 1xN, Nx1, 2xN, Nx2, prime cell counts (necessarily one row or
   column), small rectangles and the fixed battery shapes. *)
let gen_shape =
  QCheck2.Gen.(
    oneof
      [
        pure (1, 1);
        map (fun c -> (1, c)) (int_range 2 40);
        map (fun r -> (r, 1)) (int_range 2 40);
        map (fun c -> (2, c)) (int_range 2 40);
        map (fun r -> (r, 2)) (int_range 2 40);
        map (fun p -> (1, p)) (oneofl primes);
        map (fun p -> (p, 1)) (oneofl primes);
        pair (int_range 2 12) (int_range 2 12);
        oneofl steady_shapes;
      ])

let prop_leakage_solve_counts =
  QCheck2.Test.make
    ~name:"steady_of_counts == two boxed leakage rounds, bitwise" ~count:200
    ~print:(fun ((r, c), cycles, masked, seed) ->
      Printf.sprintf "%dx%d cycles=%d masked=%b seed=%d" r c cycles masked seed)
    QCheck2.Gen.(
      quad gen_shape (int_range 0 20_000) bool (int_range 0 0xFFFF))
    (fun ((rows, cols), cycles, masked, seed) ->
      let model =
        Rc_model.build (Layout.make ~rows ~cols ()) Params.default
      in
      let n = rows * cols in
      let counts k =
        Array.map
          (fun x -> int_of_float (x *. 5000.0))
          (lcg_power ~seed:(seed + k) ~scale:1.0 n)
      in
      let reads = counts 0 and writes = counts 1 in
      let leak_mask =
        if masked then
          Some (Array.map (fun x -> x > 0.3) (lcg_power ~seed:(seed + 2) ~scale:1.0 n))
        else None
      in
      let power =
        Tdfa_exec.Driver.power_of_counts Params.default
          ~window_cycles:(max 1 cycles) ~reads ~writes
      in
      bits_equal
        (boxed_leakage_rounds ?leak_mask model ~power)
        (Tdfa_exec.Driver.steady_of_counts ?leak_mask model ~cycles ~reads
           ~writes))

let prop_leakage_solve_fu =
  let open Tdfa_vliw in
  QCheck2.Test.make
    ~name:"Fu_thermal.steady_map == two boxed leakage rounds, bitwise"
    ~count:100
    QCheck2.Gen.(
      triple gen_small
        (oneof [ int_range 1 12; oneofl primes ])
        (oneofl Binding.all))
    (fun (f, width, policy) ->
      let m = Machine.make ~width () in
      let loops = Tdfa_dataflow.Loops.analyze f in
      let block_weight l = Tdfa_dataflow.Loops.frequency loops l in
      let bound =
        Binding.bind m policy ~block_weight (Bundler.schedule_func ~width f)
      in
      bits_equal
        (boxed_leakage_rounds (Machine.model m)
           ~power:(Fu_thermal.fu_power m ~block_weight bound))
        (Fu_thermal.steady_map m ~block_weight bound))

(* --- Zero allocation --------------------------------------------------------- *)

let test_solve_seq_zero_alloc () =
  let model = Rc_model.build layout Params.default in
  let ws = Rc_flat.make model in
  let power = lcg_power ~seed:5 ~scale:1.0e-3 n in
  (* Warm up: first call settles any lazy initialisation. *)
  ignore (Rc_flat.solve_seq ws ~power : float array);
  (* Gc.minor_words itself boxes its float result; measure that overhead
     with a back-to-back pair and subtract it. *)
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let before = Gc.minor_words () in
  ignore (Rc_flat.solve_seq ws ~power : float array);
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    "steady-state solve allocates nothing" 0.0
    (after -. before -. overhead)

(* --- Flat engine == boxed engine --------------------------------------------- *)

let unstable_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (l1, i1) (l2, i2) -> Label.equal l1 l2 && i1 = i2)
       a b

(* Divergence must look the same through both engines: same verdict,
   same unstable set in the same encounter order, same final delta. *)
let test_divergence_parity () =
  let af, asg = post_ra (Kernels.matmul ()) in
  let cfg = config_of af asg in
  let tight =
    { Analysis.default_settings with Analysis.delta_k = 1e-12; max_iterations = 5 }
  in
  let boxed = Analysis.fixpoint ~settings:tight ~core:Analysis.Boxed cfg af in
  let flat = Analysis.fixpoint ~settings:tight ~core:Analysis.Flat cfg af in
  Alcotest.(check bool) "same verdict" (Analysis.converged boxed)
    (Analysis.converged flat);
  Alcotest.(check string) "same fingerprint" (fingerprint boxed)
    (fingerprint flat);
  let bi = Analysis.info boxed and fi = Analysis.info flat in
  Alcotest.(check bool) "same unstable set, same order" true
    (unstable_equal bi.Analysis.unstable fi.Analysis.unstable)

(* The facade: a Driver run configured with the boxed core fingerprints
   identically to the default flat one. *)
let test_driver_core_parity () =
  let af, asg = post_ra (Kernels.stencil ()) in
  let base = Tdfa.Driver.default ~layout in
  let run core =
    Tdfa.Driver.run
      { base with Tdfa.Driver.core; granularity = 2 }
      (Tdfa.Driver.Assigned (af, asg))
  in
  let boxed = run Analysis.Boxed and flat = run Analysis.Flat in
  Alcotest.(check string) "driver outcomes fingerprint equal"
    (fingerprint boxed.outcome)
    (fingerprint flat.outcome)

(* --- Properties -------------------------------------------------------------- *)

(* Bit-identity of two outcomes: fingerprint over every thermal point
   (Marshal keeps float bits, NaN payloads included), iteration count,
   final delta and unstable list. *)
let same_outcome boxed flat =
  let bi = Analysis.info boxed and fi = Analysis.info flat in
  String.equal (fingerprint boxed) (fingerprint flat)
  && bi.Analysis.iterations = fi.Analysis.iterations
  && Int64.equal
       (Int64.bits_of_float bi.Analysis.final_delta_k)
       (Int64.bits_of_float fi.Analysis.final_delta_k)
  && unstable_equal bi.Analysis.unstable fi.Analysis.unstable
  (* The lift inputs the certificate reads. *)
  && String.equal
       (Tdfa_core.Content.lift_inputs boxed)
       (Tdfa_core.Content.lift_inputs flat)
  && Int64.equal
       (Int64.bits_of_float bi.Analysis.prev_delta_k)
       (Int64.bits_of_float fi.Analysis.prev_delta_k)

(* One Driver run per core on the same input. *)
let run_cores ?(params = Params.default) ~granularity ~settings input =
  let base =
    {
      (Tdfa.Driver.default ~layout) with
      Tdfa.Driver.granularity;
      settings;
      params;
    }
  in
  let run core =
    (Tdfa.Driver.run { base with Tdfa.Driver.core } input)
      .Tdfa.Driver.outcome
  in
  (run Analysis.Boxed, run Analysis.Flat)

(* An unreachable block has no exit row: a join reads it as ambient, as
   the boxed join reads the fresh state for it — whether it is the first
   predecessor (loaded) or a later one (joined). The generators never
   produce unreachable blocks. *)
let test_unreachable_predecessor () =
  let f =
    Parser.parse_func
      {|func @u() {
entry:
  %a = const 1
  %c = const 0
  br %c, left, right
dead:
  %d = add %a, %a
  jmp merge
left:
  %x = add %a, %a
  jmp merge
right:
  %y = mul %a, %a
  jmp merge
merge:
  %z = add %a, %a
  %w = slt %z, %a
  br %w, merge, out
out:
  ret
dead2:
  %e = mul %a, %a
  jmp merge
}|}
  in
  let af, asg = post_ra f in
  let cfg = config_of af asg in
  List.iter
    (fun join ->
      let settings = { settings with Analysis.join } in
      let boxed = Analysis.fixpoint ~settings ~core:Analysis.Boxed cfg af in
      let flat = Analysis.fixpoint ~settings ~core:Analysis.Flat cfg af in
      Alcotest.(check bool) "flat == boxed" true (same_outcome boxed flat))
    [ Analysis.Max; Analysis.Average ]

let print_case (f, (granularity, joini, deltai)) =
  Printf.sprintf "g=%d join=%d delta=%d on:\n%s" granularity joini deltai
    (Printer.func_to_string f)

(* The tentpole property: over random programs, granularities, joins and
   thresholds, the flat engine's outcome is bit-identical to the boxed
   engine's — fingerprint over every thermal point, iteration count and
   final delta, with zero tolerance. *)
let prop_flat_equals_boxed =
  QCheck2.Test.make
    ~name:"flat core == boxed core fingerprint on random programs"
    ~count:160 ~print:print_case
    QCheck2.Gen.(
      pair gen_small (triple (int_range 1 3) (int_range 0 1) (int_range 0 2)))
    (fun (f, (granularity, joini, deltai)) ->
      let af, asg = post_ra f in
      let cfg = config_of ~granularity af asg in
      let settings =
        {
          Analysis.delta_k = List.nth [ 0.05; 0.1; 0.5 ] deltai;
          max_iterations = 100;
          join = (if joini = 0 then Analysis.Max else Analysis.Average);
        }
      in
      let boxed = Analysis.fixpoint ~settings ~core:Analysis.Boxed cfg af in
      let flat = Analysis.fixpoint ~settings ~core:Analysis.Flat cfg af in
      same_outcome boxed flat)

(* The flat sweep skips a block whose incoming state is bit-equal to
   its last one and whose exit row is finite. The next three properties
   aim at the edges of that rule. *)

(* Extreme coefficients drive states to NaN and +-infinity (zero
   capacitance, unstable steps, NaN or infinite energies and ambients):
   a block holding a non-finite state must be recomputed, never
   skipped. Which payload a NaN carries is not fixed by OCaml's float
   semantics (the compiler may commute the operands of +. and *.), and
   the two engines do differ there, so these outcomes are compared
   point by point with every NaN equal to every NaN and all other
   values bit for bit. *)
let same_bits_or_nan x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let same_points a b =
  Array.length a = Array.length b && Array.for_all2 same_bits_or_nan a b

let same_slots (a : Flat_core.slots) (b : Flat_core.slots) =
  Array.length a.Flat_core.blocks = Array.length b.Flat_core.blocks
  && Array.for_all2 Label.equal a.Flat_core.blocks b.Flat_core.blocks
  && a.Flat_core.first = b.Flat_core.first

let same_outcome_up_to_nan_payload boxed flat =
  let bi = Analysis.info boxed and fi = Analysis.info flat in
  Analysis.converged boxed = Analysis.converged flat
  && bi.Analysis.iterations = fi.Analysis.iterations
  && same_bits_or_nan bi.Analysis.final_delta_k fi.Analysis.final_delta_k
  && unstable_equal bi.Analysis.unstable fi.Analysis.unstable
  && same_slots bi.Analysis.slots fi.Analysis.slots
  && same_points bi.Analysis.states fi.Analysis.states
  && same_points bi.Analysis.exits fi.Analysis.exits
  && same_points bi.Analysis.prev_exits fi.Analysis.prev_exits
  && same_bits_or_nan bi.Analysis.prev_delta_k fi.Analysis.prev_delta_k

let gen_extreme_params =
  let open QCheck2.Gen in
  let pick normal =
    oneofl
      [ normal; normal; 0.0; -.normal; normal *. 1e12; infinity;
        neg_infinity; nan ]
  in
  let d = Params.default in
  map
    (fun (((a, c), (r, w)), ((lat, vert), (cap, (lw, lc)))) ->
      {
        Params.ambient_k = a;
        clock_hz = c;
        read_energy_j = r;
        write_energy_j = w;
        lateral_conductance_w_per_k = lat;
        vertical_conductance_w_per_k = vert;
        cell_capacitance_j_per_k = cap;
        leakage_w = lw;
        leakage_temp_coeff = lc;
      })
    (pair
       (pair
          (pair (pick d.Params.ambient_k) (pick d.Params.clock_hz))
          (pair (pick d.Params.read_energy_j) (pick d.Params.write_energy_j)))
       (pair
          (pair
             (pick d.Params.lateral_conductance_w_per_k)
             (pick d.Params.vertical_conductance_w_per_k))
          (pair
             (pick d.Params.cell_capacitance_j_per_k)
             (pair (pick d.Params.leakage_w) (pick d.Params.leakage_temp_coeff)))))

(* Finite parameters off the defaults' round values, ambient 0 K among
   them. Near a 318 K ambient every state is a multiple of one ulp, so
   the stencil's differences and their sums are exact, and a leakage
   increment far below that ulp is rounded away: a changed fold order or
   a reciprocal in place of the division would change no bit. From 0 K,
   temperatures span many magnitudes and both change bits. *)
let gen_wide_params =
  let open QCheck2.Gen in
  let d = Params.default in
  let scale lo hi x = map (fun f -> x *. f) (float_range lo hi) in
  map
    (fun (a, ((r, w), (c, (lw, lc)))) ->
      {
        d with
        Params.ambient_k = a;
        read_energy_j = r;
        write_energy_j = w;
        cell_capacitance_j_per_k = c;
        leakage_w = lw;
        leakage_temp_coeff = lc;
      })
    (pair
       (oneof [ pure 0.0; scale 0.0 2.0 d.Params.ambient_k ])
       (pair
          (pair
             (scale 0.1 1e4 d.Params.read_energy_j)
             (scale 0.1 1e4 d.Params.write_energy_j))
          (pair
             (scale 0.5 10.0 d.Params.cell_capacitance_j_per_k)
             (pair
                (scale 0.1 100.0 d.Params.leakage_w)
                (scale 0.1 100.0 d.Params.leakage_temp_coeff)))))

let prop_flat_equals_boxed_extreme_params =
  QCheck2.Test.make
    ~name:"flat core == boxed core under NaN/infinity-forcing params"
    ~count:120
    ~print:(fun (f, (p, _)) ->
      Format.asprintf "%a on:\n%s" Params.pp p (Printer.func_to_string f))
    QCheck2.Gen.(pair gen_small (pair gen_extreme_params (int_range 0 1)))
    (fun (f, (params, joini)) ->
      let af, asg = post_ra f in
      let settings =
        {
          Analysis.delta_k = 0.1;
          max_iterations = 12;
          join = (if joini = 0 then Analysis.Max else Analysis.Average);
        }
      in
      let boxed, flat =
        run_cores ~params ~granularity:2 ~settings
          (Tdfa.Driver.Assigned (af, asg))
      in
      same_outcome_up_to_nan_payload boxed flat)

(* delta = 0 keeps sweeping until nothing moves at all, so every
   converged run ends on a sweep the skip rule could shortcut; a
   negative delta makes every skipped instruction unstable. *)
let prop_flat_equals_boxed_zero_delta =
  QCheck2.Test.make ~name:"flat core == boxed core at delta 0 and below"
    ~count:80
    ~print:(fun (f, _) -> Printer.func_to_string f)
    QCheck2.Gen.(pair gen_small (pair (int_range 0 1) (int_range 0 1)))
    (fun (f, (joini, negi)) ->
      let af, asg = post_ra f in
      let settings =
        {
          Analysis.delta_k = (if negi = 0 then 0.0 else -1.0);
          max_iterations = 60;
          join = (if joini = 0 then Analysis.Max else Analysis.Average);
        }
      in
      let boxed, flat =
        run_cores ~granularity:2 ~settings
          (Tdfa.Driver.Assigned (af, asg))
      in
      same_outcome boxed flat)

(* A compiled trace's carrier is one acyclic block of Nops: its second
   sweep is skipped whole. *)
let prop_flat_equals_boxed_trace =
  QCheck2.Test.make ~name:"flat core == boxed core on compiled traces"
    ~count:40
    QCheck2.Gen.(triple (int_range 0 30) (int_range 1 300) (int_range 1 99))
    (fun (s10, samples, seed) ->
      let sample =
        Tdfa_trace.Synth.zipf ~seed ~s:(float_of_int s10 /. 10.0) ~addrs:48
          ~n:samples ()
      in
      let compiled =
        Tdfa_trace.Compile.compile ~window_us:200
          ~policy:Tdfa_trace.Mapping.Hashed ~cells:n sample
      in
      let boxed, flat =
        run_cores ~granularity:1 ~settings
          (Tdfa_trace.Compile.driver_input compiled)
      in
      same_outcome boxed flat)

(* The C step has a rim path (the first and last rows, and the first
   and last point of every other row, where a neighbour may be missing),
   an interior path that takes two points at a time with a scalar
   leftover, and a leakage pass that takes two points at a time with a
   scalar leftover when the point count is odd. The shapes below put
   every point on the rim (1x1, 1x9, 9x1, 2x2, 2x9, and any granularity
   >= a side), give rows 1 to 5 interior points (3x7, 4x4, 6x5, 4x6,
   5x7), have odd and even point counts, leave a coarse rim of partial
   points (5x7 and 13x17 at granularity 2-4), and reach trace size
   (64x63: 61 interior points per row at granularity 1, 30 at 2). *)
let grid_shapes =
  [
    (1, 1); (1, 9); (9, 1); (2, 2); (2, 9); (3, 7); (7, 3); (5, 7); (4, 4);
    (4, 6); (6, 5); (13, 17); (64, 63);
  ]

(* [cfg8], built on the 8x8 file, folded onto a [rows x cols] layout at
   [granularity]: cell c heats cell c mod cells. *)
let fold_onto (cfg8 : Transfer.config) (rows, cols) granularity =
  let layout = Layout.make ~rows ~cols () in
  let cells = Layout.num_cells layout in
  let fold evs =
    List.map
      (fun (e : Access.event) -> { e with Access.cell = e.Access.cell mod cells })
      evs
  in
  {
    cfg8 with
    Transfer.layout;
    granularity;
    accesses_of_instr = (fun l k i -> fold (cfg8.Transfer.accesses_of_instr l k i));
    accesses_of_term = (fun l t -> fold (cfg8.Transfer.accesses_of_term l t));
  }

(* [check cfg join] on every shape, granularity 1-4 and join. *)
let on_every_shape cfg8 check =
  List.for_all
    (fun shape ->
      List.for_all
        (fun granularity ->
          List.for_all
            (check (fold_onto cfg8 shape granularity))
            [ Analysis.Max; Analysis.Average ])
        [ 1; 2; 3; 4 ])
    grid_shapes

(* A random program allocated on the 8x8 file, folded onto every shape. *)
let prop_flat_equals_boxed_grid_shapes =
  QCheck2.Test.make
    ~name:"flat core == boxed core on every grid shape and granularity"
    ~count:12
    ~print:(fun f -> Printer.func_to_string f)
    gen_small
    (fun f ->
      let af, asg = post_ra f in
      on_every_shape (config_of ~granularity:1 af asg) (fun cfg join ->
          let settings = { settings with Analysis.join } in
          let run core = Analysis.fixpoint ~settings ~core cfg af in
          same_outcome (run Analysis.Boxed) (run Analysis.Flat)))

type shape_source = Program of Func.t | Trace of int * int * int

(* The unfolded configuration (8x8, granularity 1) and the function. *)
let shape_source_config = function
  | Program f ->
    let af, asg = post_ra f in
    (config_of ~granularity:1 af asg, af)
  | Trace (s10, samples, seed) ->
    let sample =
      Tdfa_trace.Synth.zipf ~seed ~s:(float_of_int s10 /. 10.0) ~addrs:48
        ~n:samples ()
    in
    let compiled =
      Tdfa_trace.Compile.compile ~window_us:200
        ~policy:Tdfa_trace.Mapping.Hashed ~cells:n sample
    in
    let prepared =
      Tdfa.Driver.config_of_input
        (Tdfa.Driver.default ~layout)
        (Tdfa_trace.Compile.driver_input compiled)
    in
    (prepared.Tdfa.Driver.config_of ~granularity:1, prepared.Tdfa.Driver.func)

let print_shape_case (source, params, delta_k) =
  Printf.sprintf "delta=%g params=%s on %s" delta_k
    (match params with
    | None -> "default"
    | Some p -> Format.asprintf "%a" Params.pp p)
    (match source with
    | Program f -> Printer.func_to_string f
    | Trace (s10, samples, seed) ->
      Printf.sprintf "trace s=%d/10 samples=%d seed=%d" s10 samples seed)

(* The same shapes under the inputs that reach the C step's other
   branches: NaN/infinity-forcing and wide-range parameters, delta 0
   and below, and compiled traces as well as programs. Iterations are
   capped at 8 (delta <= 0 and NaN runs never converge), which still
   covers a first sweep, change sweeps and skipped blocks. *)
let prop_flat_equals_boxed_grid_shapes_forcing =
  QCheck2.Test.make
    ~name:"flat core == boxed core on every grid shape under forcing inputs"
    ~count:20 ~print:print_shape_case
    QCheck2.Gen.(
      triple
        (oneof
           [
             map (fun f -> Program f) gen_small;
             map
               (fun (s10, samples, seed) -> Trace (s10, samples, seed))
               (triple (int_range 0 30) (int_range 1 300) (int_range 1 99));
           ])
        (oneof
           [
             pure None;
             map Option.some gen_extreme_params;
             map Option.some gen_wide_params;
           ])
        (oneofl [ 0.1; 0.0; -1.0 ]))
    (fun (source, params, delta_k) ->
      let cfg8, func = shape_source_config source in
      let cfg8, same =
        match params with
        | None -> (cfg8, same_outcome)
        | Some params ->
          ({ cfg8 with Transfer.params }, same_outcome_up_to_nan_payload)
      in
      on_every_shape cfg8 (fun cfg join ->
          let settings = { Analysis.delta_k; max_iterations = 8; join } in
          let run core = Analysis.fixpoint ~settings ~core cfg func in
          same (run Analysis.Boxed) (run Analysis.Flat)))

(* The result fingerprint does not see NaN payloads: under parameters
   that force NaNs, where the two cores may carry different payloads,
   Content.outcome of the flat and boxed outcomes is equal. *)
let prop_content_outcome_nan_payload =
  QCheck2.Test.make
    ~name:"Content.outcome flat == boxed under NaN/infinity-forcing params"
    ~count:60
    ~print:(fun (f, p) ->
      Format.asprintf "%a on:\n%s" Params.pp p (Printer.func_to_string f))
    QCheck2.Gen.(pair gen_small gen_extreme_params)
    (fun (f, params) ->
      let af, asg = post_ra f in
      let settings = { settings with Analysis.max_iterations = 12 } in
      let boxed, flat =
        run_cores ~params ~granularity:2 ~settings
          (Tdfa.Driver.Assigned (af, asg))
      in
      String.equal (Content.outcome boxed) (Content.outcome flat))

(* A sweep writes only into the workspace: over a 64x64 grid and a
   200-window trace, [Flat_core.pass] allocates nothing beyond the
   unstable list it returns and its result pair. The first sweep finds
   every window unstable, the second skips the whole carrier block. *)
let test_pass_zero_alloc () =
  let cells = 4096 in
  let layout = Layout.make ~rows:64 ~cols:64 () in
  let sample =
    Tdfa_trace.Synth.zipf ~seed:3 ~s:1.0 ~addrs:cells ~n:4000 ~period_us:50 ()
  in
  let compiled =
    Tdfa_trace.Compile.compile ~policy:Tdfa_trace.Mapping.Direct ~cells sample
  in
  Alcotest.(check int) "200 windows" 200
    (Tdfa_trace.Compile.stats compiled).Tdfa_trace.Compile.windows;
  let prepared =
    Tdfa.Driver.config_of_input
      (Tdfa.Driver.default ~layout)
      (Tdfa_trace.Compile.driver_input compiled)
  in
  let t =
    Flat_core.prepare ~join:Flat_core.Join_max ~delta_k:0.05
      (prepared.Tdfa.Driver.config_of ~granularity:1)
      prepared.Tdfa.Driver.func
  in
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  List.iter
    (fun sweep ->
      let before = Gc.minor_words () in
      let _, unstable = Flat_core.pass t in
      let after = Gc.minor_words () in
      (* Per unstable instruction a (label, index) pair and a cons cell,
         plus the cons cell of the List.rev that puts the list in
         encounter order; then the result pair and the boxed largest
         change. *)
      let allowed = float_of_int ((List.length unstable * 9) + 3 + 2) in
      Alcotest.(check bool)
        (Printf.sprintf "sweep %d: %.0f words for %d unstable" sweep
           (after -. before -. overhead) (List.length unstable))
        true
        (after -. before -. overhead <= allowed))
    [ 1; 2 ]

(* --- Skip snapshots and post_fixpoint ---------------------------------------- *)

(* post_fixpoint overwrites the exit rows, so it must not trust any
   block snapshot: on a converged workspace (every snapshot valid) it
   yields exactly what it yields on a freshly prepared one (none). *)
let test_post_fixpoint_ignores_snapshots () =
  List.iter
    (fun (name, f) ->
      let af, asg = post_ra f in
      let cfg = config_of af asg in
      let prepare () =
        Flat_core.prepare ~join:Flat_core.Join_max ~delta_k:0.1 cfg af
      in
      let converged = prepare () in
      let rec sweep k =
        if k > 0 && snd (Flat_core.pass converged) <> [] then sweep (k - 1)
      in
      sweep 100;
      let u =
        Array.map (fun v -> v +. 0.5) (Array.copy (Flat_core.exits converged))
      in
      let fresh = prepare () in
      let ok_c = Flat_core.post_fixpoint converged u in
      let ok_f = Flat_core.post_fixpoint fresh u in
      Alcotest.(check bool) (name ^ ": same verdict") ok_f ok_c;
      Alcotest.(check bool) (name ^ ": same exits") true
        (bits_equal (Flat_core.exits fresh) (Flat_core.exits converged));
      Alcotest.(check bool) (name ^ ": same peak points") true
        (bits_equal (Flat_core.peak_points fresh)
           (Flat_core.peak_points converged)))
    [ ("fib", Kernels.fib ()); ("fir", Kernels.fir ());
      ("matmul", Kernels.matmul ()) ]

(* --- Recycled state buffers ---------------------------------------------------- *)

(* A recycled state buffer is overwritten before it is read: a fixpoint
   that takes one full of NaNs fills the same bits as one on a fresh
   buffer, and it takes the buffer rather than allocating. A buffer of
   another length is not taken. A fresh buffer is not zero-filled, so the
   fresh path is held to the boxed core too. *)
let test_recycled_states () =
  List.iter
    (fun (name, f) ->
      let af, asg = post_ra f in
      let cfg = config_of af asg in
      let run () = Analysis.fixpoint ~settings ~core:Analysis.Flat cfg af in
      Flat_core.recycle [||];
      let fresh = run () in
      let boxed = Analysis.fixpoint ~settings ~core:Analysis.Boxed cfg af in
      Alcotest.(check bool) (name ^ ": fresh == boxed") true
        (same_outcome boxed fresh);
      Alcotest.(check string) (name ^ ": fresh Content.outcome")
        (Content.outcome boxed) (Content.outcome fresh);
      let len = Array.length (Analysis.info fresh).Analysis.states in
      let other = Array.make (len + 1) nan in
      Flat_core.recycle other;
      let untouched = run () in
      Alcotest.(check bool) (name ^ ": other length not taken") false
        ((Analysis.info untouched).Analysis.states == other);
      let junk = Array.make len nan in
      Flat_core.recycle junk;
      let reused = run () in
      Alcotest.(check bool) (name ^ ": takes the recycled buffer") true
        ((Analysis.info reused).Analysis.states == junk);
      Alcotest.(check bool) (name ^ ": same outcome") true
        (same_outcome fresh reused);
      Alcotest.(check bool) (name ^ ": taken once") false
        ((Analysis.info (run ())).Analysis.states == junk))
    [ ("fib", Kernels.fib ()); ("fir", Kernels.fir ());
      ("matmul", Kernels.matmul ()) ]

(* --- peak_map ------------------------------------------------------------------ *)

(* peak_rows is Float.max folded from the last row to the first, bit for
   bit, over every pair of special values: signed zeros, NaNs of either
   sign, infinities. *)
let test_peak_rows_is_float_max () =
  let specials =
    [| 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 1.0; -1.0; 318.0 |]
  in
  let k = Array.length specials in
  let n = k * k in
  (* Row 0 and row 1 hold every ordered pair at some point. *)
  let states =
    Array.init (2 * n) (fun i ->
        let p = i mod n in
        if i < n then specials.(p / k) else specials.(p mod k))
  in
  let expect =
    Array.init n (fun p -> Float.max states.(n + p) states.(p))
  in
  Alcotest.(check bool) "bitwise Float.max" true
    (bits_equal expect (Flat_core.peak_rows ~n_points:n ~ambient:0.0 states));
  Alcotest.(check bool) "no rows: ambient" true
    (bits_equal [| 5.0; 5.0 |] (Flat_core.peak_rows ~n_points:2 ~ambient:5.0 [||]))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "core_flat",
      [
        tc "flat grid mirrors Thermal_state geometry" `Quick
          test_grid_matches_thermal_state;
        tc "derivative/leakage ~out buffers are bitwise equal" `Quick
          test_out_buffers_bitwise;
        tc "flat steady solve == boxed steady solve, bitwise" `Quick
          test_solve_seq_bitwise;
        tc "steady-state inner loop allocates nothing" `Quick
          test_solve_seq_zero_alloc;
        tc "divergence identical across cores" `Quick test_divergence_parity;
        tc "driver core switch preserves the fingerprint" `Quick
          test_driver_core_parity;
        tc "an unreachable predecessor joins as ambient" `Quick
          test_unreachable_predecessor;
        tc "post_fixpoint ignores skip snapshots" `Quick
          test_post_fixpoint_ignores_snapshots;
        tc "peak_rows is Float.max, signed zeros and NaNs included" `Quick
          test_peak_rows_is_float_max;
        tc "a fixpoint sweep allocates only its unstable list" `Quick
          test_pass_zero_alloc;
        tc "a recycled state buffer changes no bit" `Quick
          test_recycled_states;
      ] );
    ( "core_flat.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_flat_equals_boxed;
          prop_flat_equals_boxed_extreme_params;
          prop_flat_equals_boxed_zero_delta;
          prop_flat_equals_boxed_trace;
          prop_flat_equals_boxed_grid_shapes;
          prop_flat_equals_boxed_grid_shapes_forcing;
          prop_content_outcome_nan_payload;
          prop_leakage_solve_counts;
          prop_leakage_solve_fu;
        ] );
  ]
