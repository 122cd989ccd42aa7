(* Differential battery for the thermal-aware allocator: unit tests of
   the chip model and task profiles, QCheck properties that pin the
   allocator's structural guarantees (permutation invariance,
   never-worse-than-blind, SA(0) = greedy), and a brute-force oracle
   that checks greedy and annealing against exhaustive enumeration on
   small instances. *)

open Tdfa_floorplan
open Tdfa_alloc

(* A small register file keeps every Gauss-Seidel solve cheap; the
   chip-level behaviour under test is independent of core size. *)
let small_core = Layout.make ~rows:2 ~cols:2 ()
let ambient = Tdfa_thermal.Params.default.Tdfa_thermal.Params.ambient_k

let chip ~rows ~cols = Chip.make ~core:small_core ~rows ~cols ()

let mk_task ?(core = small_core) name ~mean_rise ~extra =
  Task.of_scalars ~core ~name ~peak_k:(ambient +. mean_rise +. extra)
    ~mean_k:(ambient +. mean_rise) ()

(* ------------------------------------------------------------------ *)
(* Chip units.                                                         *)

let test_geometry_parse () =
  let ok s = Chip.geometry_of_string s in
  Alcotest.(check bool) "2x2" true (ok "2x2" = Ok (2, 2));
  Alcotest.(check bool) "4x4" true (ok "4x4" = Ok (4, 4));
  Alcotest.(check bool) "1x3" true (ok "1x3" = Ok (1, 3));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (match ok s with Ok _ -> false | Error _ -> true))
    [ ""; "x"; "2x"; "x2"; "0x2"; "2x0"; "-1x2"; "ax2"; "2xb"; "22"; "2x2x2" ];
  (* Untrusted geometries are bounded: scoring cost grows with the core
     count, so an oversized chip is a parse error, not a hang. *)
  Alcotest.(check bool) "32x32 is the largest square" true
    (ok "32x32" = Ok (32, 32));
  Alcotest.(check bool) "1x1024 accepted" true (ok "1x1024" = Ok (1, 1024));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (match ok s with Ok _ -> false | Error _ -> true))
    [ "1000x1000"; "33x32"; "1x1025"; "4611686018427387903x2";
      "3037000500x3037000500" ]

let test_chip_make () =
  let c = chip ~rows:2 ~cols:3 in
  Alcotest.(check int) "6 cores" 6 (Chip.num_cores c);
  Alcotest.(check string) "geometry" "2x3" (Chip.geometry_to_string c);
  Alcotest.(check (float 1e-12)) "core vertical = cells * cell vertical"
    (float_of_int (Layout.num_cells small_core) *. Chip.cell_vertical_w_per_k c)
    (Chip.core_vertical_w_per_k c);
  Alcotest.(check bool) "non-positive grid rejected" true
    (match Chip.make ~rows:0 ~cols:2 () with
     | (_ : Chip.t) -> false
     | exception Invalid_argument _ -> true)

let test_chip_solve_zero_power () =
  let c = chip ~rows:2 ~cols:2 in
  let t = Chip.solve c ~power:(Array.make 4 0.0) in
  Array.iter
    (fun x -> Alcotest.(check (float 1e-9)) "ambient everywhere" ambient x)
    t

let test_chip_solve_energy_balance () =
  (* Steady state conserves power: what enters the cores leaves through
     the vertical paths, sum((T_i - amb) * g_core_vert) = sum(power). *)
  let c = chip ~rows:2 ~cols:3 in
  let power = [| 0.4; 0.0; 0.1; 0.0; 0.25; 0.05 |] in
  let temps = Chip.solve c ~power in
  let gv = Chip.core_vertical_w_per_k c in
  let out =
    Array.fold_left (fun acc t -> acc +. ((t -. ambient) *. gv)) 0.0 temps
  in
  let injected = Array.fold_left ( +. ) 0.0 power in
  Alcotest.(check (float 1e-6)) "power balance" injected out;
  (* The powered corner is the hottest core. *)
  let hottest = ref 0 in
  Array.iteri (fun i t -> if t > temps.(!hottest) then hottest := i) temps;
  Alcotest.(check int) "hottest is the most powered" 0 !hottest

let test_chip_solve_coupling () =
  (* Heat injected on one core leaks laterally: its neighbours end up
     strictly above ambient, and strictly below the source. *)
  let c = chip ~rows:3 ~cols:3 in
  let power = Array.make 9 0.0 in
  power.(4) <- 0.5;
  let temps = Chip.solve c ~power in
  List.iter
    (fun j ->
      Alcotest.(check bool) "neighbour warmed" true (temps.(j) > ambient +. 0.01);
      Alcotest.(check bool) "below source" true (temps.(j) < temps.(4)))
    (Chip.neighbors c 4)

(* The direct solve against the boxed Gauss-Seidel oracle on the same
   chip-scale network: one node per core, the chip's core-to-core and
   core-to-ambient conductances. *)
let qcheck_chip_solve_matches_gauss_seidel =
  QCheck2.Test.make
    ~name:"direct chip solve == boxed Gauss-Seidel (tol 1e-12) within 1e-8 K"
    ~count:100
    QCheck2.Gen.(
      pair (int_range 1 6) (int_range 1 7) >>= fun (rows, cols) ->
      array_size (return (rows * cols)) (float_bound_inclusive 0.2)
      >|= fun power -> (rows, cols, power))
    (fun (rows, cols, power) ->
      let c = Chip.make ~rows ~cols () in
      let p = Chip.params c in
      let model =
        Tdfa_thermal.Rc_model.build (Chip.grid c)
          {
            p with
            Tdfa_thermal.Params.lateral_conductance_w_per_k =
              Chip.core_lateral_w_per_k c;
            vertical_conductance_w_per_k = Chip.core_vertical_w_per_k c;
          }
      in
      let gs = Tdfa_thermal.Rc_model.steady_state ~tol:1e-12 model ~power in
      let direct = Chip.solve c ~power in
      Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-8) gs direct)

(* The dense reference of Chip.solve: the same cosine bases and
   eigenvalues, and all four products dense, every entry of power
   multiplied. Chip.solve skips power's zero entries in the first
   product; that must change no bit. Only where two NaNs meet may the
   payload differ, as the compiler may commute an addition, so NaNs
   compare by position. *)
let dense_chip_solve c ~power =
  let grid = Chip.grid c in
  let rows = grid.Layout.rows and cols = grid.Layout.cols in
  let basis m =
    let fm = float_of_int m in
    let b =
      Array.init (m * m) (fun jk ->
          let j = jk / m and k = jk mod m in
          let s = if k = 0 then sqrt (1.0 /. fm) else sqrt (2.0 /. fm) in
          s
          *. cos
               (Float.pi *. float_of_int k *. float_of_int ((2 * j) + 1)
               /. (2.0 *. fm)))
    in
    let eig =
      Array.init m (fun k ->
          2.0 -. (2.0 *. cos (Float.pi *. float_of_int k /. fm)))
    in
    (b, Array.init (m * m) (fun kj -> b.((kj mod m * m) + (kj / m))), eig)
  in
  let br, brt, er = basis rows and bc, bct, ec = basis cols in
  let inv_eig =
    Array.init (rows * cols) (fun kl ->
        1.0
        /. ((Chip.core_lateral_w_per_k c *. (er.(kl / cols) +. ec.(kl mod cols)))
           +. Chip.core_vertical_w_per_k c))
  in
  let mul ~m ~k ~n x y =
    let out = Array.make (m * n) 0.0 in
    for i = 0 to m - 1 do
      for p = 0 to k - 1 do
        for j = 0 to n - 1 do
          out.((i * n) + j) <-
            out.((i * n) + j) +. (x.((i * k) + p) *. y.((p * n) + j))
        done
      done
    done;
    out
  in
  let a = mul ~m:rows ~k:rows ~n:cols brt power in
  let b = Array.map2 ( *. ) (mul ~m:rows ~k:cols ~n:cols a bc) inv_eig in
  let a = mul ~m:rows ~k:rows ~n:cols br b in
  Array.map
    (fun x -> Chip.ambient_k c +. x)
    (mul ~m:rows ~k:cols ~n:cols a bct)

let qcheck_chip_solve_matches_dense =
  QCheck2.Test.make ~name:"chip solve skipping zero power == dense, bitwise"
    ~count:300
    ~print:(fun (rows, cols, power) ->
      Printf.sprintf "%dx%d [%s]" rows cols
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") power))))
    QCheck2.Gen.(
      pair (int_range 1 8) (int_range 1 8) >>= fun (rows, cols) ->
      array_size
        (return (rows * cols))
        (frequency
           [
             (6, pure 0.0);
             (2, pure (-0.0));
             (4, float_bound_inclusive 0.5);
             (1, oneofl [ nan; -.nan; infinity; neg_infinity; 1e-310 ]);
           ])
      >|= fun power -> (rows, cols, power))
    (fun (rows, cols, power) ->
      let c = Chip.make ~rows ~cols () in
      Array.for_all2
        (fun x y ->
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          || (Float.is_nan x && Float.is_nan y))
        (dense_chip_solve c ~power) (Chip.solve c ~power))

let test_chip_solve_validation () =
  let c = chip ~rows:2 ~cols:2 in
  Alcotest.(check bool) "length mismatch rejected" true
    (match Chip.solve c ~power:(Array.make 3 0.0) with
     | (_ : float array) -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Task units.                                                         *)

let test_task_of_scalars () =
  let c = chip ~rows:1 ~cols:1 in
  let t = mk_task "hot" ~mean_rise:10.0 ~extra:5.0 in
  Alcotest.(check (float 1e-12)) "sustained = rise * g_core_vert"
    (10.0 *. Chip.core_vertical_w_per_k c)
    (Task.sustained_w t);
  Alcotest.(check (float 1e-12)) "transient rise" 5.0 (Task.transient_rise_k t);
  (* An isolated core running the task reproduces the task's rise. *)
  let temps = Chip.solve c ~power:[| Task.sustained_w t |] in
  Alcotest.(check (float 1e-6)) "isolated core reproduces rise"
    (ambient +. 10.0) temps.(0)

let test_task_clamps () =
  let t =
    Task.of_scalars ~core:small_core ~name:"cold"
      ~peak_k:(ambient -. 5.0) ~mean_k:(ambient -. 10.0) ()
  in
  Alcotest.(check (float 1e-12)) "sub-ambient task has no power" 0.0
    (Task.sustained_w t);
  Alcotest.(check (float 1e-12)) "transient clamped at zero" 0.0
    (Task.transient_rise_k
       (Task.of_scalars ~core:small_core ~name:"inv" ~peak_k:ambient
          ~mean_k:(ambient +. 3.0) ()))

let test_task_compare_total_order () =
  let a = mk_task "a" ~mean_rise:1.0 ~extra:0.0 in
  let b = mk_task "b" ~mean_rise:1.0 ~extra:0.0 in
  let a' = mk_task "a" ~mean_rise:1.0 ~extra:0.0 in
  Alcotest.(check int) "equal tasks compare 0" 0 (Task.compare a a');
  Alcotest.(check bool) "name orders first" true (Task.compare a b < 0);
  Alcotest.(check bool) "antisymmetric" true (Task.compare b a > 0);
  let hot = mk_task "a" ~mean_rise:2.0 ~extra:0.0 in
  Alcotest.(check bool) "scalars break name ties" true (Task.compare a hot <> 0)

(* ------------------------------------------------------------------ *)
(* Policy plumbing units.                                              *)

let test_policy_of_string () =
  let p s = Place.policy_of_string ~seed:7 ~iters:11 s in
  Alcotest.(check bool) "rr" true (p "rr" = Ok Place.Round_robin);
  Alcotest.(check bool) "round-robin" true (p "round-robin" = Ok Place.Round_robin);
  Alcotest.(check bool) "greedy" true (p "greedy" = Ok Place.Greedy);
  Alcotest.(check bool) "coolest" true (p "coolest" = Ok Place.Coolest_neighbor);
  Alcotest.(check bool) "anneal carries seed and iters" true
    (p "anneal" = Ok (Place.Annealed { seed = 7; iters = 11 }));
  Alcotest.(check bool) "sa alias" true
    (p "sa" = Ok (Place.Annealed { seed = 7; iters = 11 }));
  Alcotest.(check bool) "unknown rejected" true
    (match p "hottest" with Ok _ -> false | Error _ -> true);
  Alcotest.(check string) "names" "round-robin" (Place.policy_name Place.Round_robin);
  Alcotest.(check string) "anneal name" "anneal(seed=3,iters=9)"
    (Place.policy_name (Place.Annealed { seed = 3; iters = 9 }))

let test_evaluate_validation () =
  let c = chip ~rows:2 ~cols:2 in
  let tasks = [| mk_task "a" ~mean_rise:5.0 ~extra:1.0 |] in
  Alcotest.(check bool) "length mismatch rejected" true
    (match Place.evaluate c tasks [| 0; 1 |] with
     | (_ : Place.placement) -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out-of-range core rejected" true
    (match Place.evaluate c tasks [| 4 |] with
     | (_ : Place.placement) -> false
     | exception Invalid_argument _ -> true)

let test_exhaustive_limit () =
  let c = chip ~rows:4 ~cols:4 in
  let tasks = List.init 8 (fun i ->
      mk_task (Printf.sprintf "t%d" i) ~mean_rise:1.0 ~extra:0.0)
  in
  (* 16^8 placements blows the default budget. *)
  Alcotest.(check bool) "over-limit enumeration rejected" true
    (match Place.exhaustive c tasks with
     | (_ : Place.placement) -> false
     | exception Invalid_argument _ -> true)

let test_empty_and_single () =
  let c = chip ~rows:2 ~cols:2 in
  let empty = Place.run c Place.Greedy [] in
  Alcotest.(check int) "empty assignment" 0 (List.length empty.Place.assignment);
  Alcotest.(check (float 1e-9)) "idle chip peak is ambient" ambient
    empty.Place.peak_k;
  let one = Place.run c Place.Greedy [ mk_task "solo" ~mean_rise:8.0 ~extra:2.0 ] in
  Alcotest.(check int) "single task placed" 1 (List.length one.Place.assignment);
  Alcotest.(check bool) "peak above ambient" true (one.Place.peak_k > ambient)

(* The annealer polls its cancellation token: a tripped token stops it
   with [Analysis.Cancelled] carrying the completed moves, and a token
   that never trips changes nothing. *)
let test_anneal_cancel () =
  let c = chip ~rows:2 ~cols:2 in
  let tasks =
    List.init 4 (fun i ->
        mk_task (Printf.sprintf "t%d" i) ~mean_rise:(float_of_int (i + 1))
          ~extra:1.0)
  in
  let sa = Place.Annealed { seed = 5; iters = 1000 } in
  let polls = ref 0 in
  (match
     Place.run
       ~cancel:(fun () ->
         incr polls;
         !polls > 2)
       c sa tasks
   with
   | (_ : Place.placement) -> Alcotest.fail "annealing ignored cancel"
   | exception Tdfa_core.Analysis.Cancelled { iterations } ->
     Alcotest.(check int) "stopped at the third poll" 767 iterations);
  Alcotest.(check bool) "an untripped token changes nothing" true
    (Place.run ~cancel:(fun () -> false) c sa tasks = Place.run c sa tasks)

(* ------------------------------------------------------------------ *)
(* QCheck generators.                                                  *)

(* A task list of 2..8 jobs with distinct names and bounded rises, the
   shape the batch engine hands the allocator. *)
let gen_tasks =
  QCheck2.Gen.(
    let gen_spec = pair (int_range 0 200) (int_range 0 150) in
    list_size (int_range 2 8) gen_spec
    |> map (fun specs ->
           List.mapi
             (fun i (rise10, extra10) ->
               mk_task
                 (Printf.sprintf "job%d" i)
                 ~mean_rise:(float_of_int rise10 /. 10.0)
                 ~extra:(float_of_int extra10 /. 10.0))
             specs))

let gen_tasks_shuffled =
  QCheck2.Gen.(gen_tasks >>= fun ts -> shuffle_l ts >|= fun ts' -> (ts, ts'))

let placements_equal (a : Place.placement) (b : Place.placement) =
  a.Place.assignment = b.Place.assignment
  && a.Place.core_temps_k = b.Place.core_temps_k
  && a.Place.local_peak_k = b.Place.local_peak_k
  && a.Place.peak_k = b.Place.peak_k
  && a.Place.gradient_k = b.Place.gradient_k
  && a.Place.score = b.Place.score

let policies =
  [ Place.Round_robin; Place.Greedy; Place.Coolest_neighbor;
    Place.Annealed { seed = 42; iters = 200 } ]

let qcheck_permutation_invariant =
  QCheck2.Test.make
    ~name:"allocation is a function of the task multiset" ~count:100
    gen_tasks_shuffled
    (fun (ts, shuffled) ->
      let c = chip ~rows:2 ~cols:2 in
      List.for_all
        (fun p ->
          placements_equal (Place.run c p ts) (Place.run c p shuffled))
        policies)

let qcheck_never_worse_than_blind =
  QCheck2.Test.make
    ~name:"greedy/coolest/SA never exceed round-robin's peak" ~count:100
    gen_tasks
    (fun ts ->
      let c = chip ~rows:2 ~cols:2 in
      let blind = Place.run c Place.Round_robin ts in
      List.for_all
        (fun p -> (Place.run c p ts).Place.peak_k <= blind.Place.peak_k)
        [ Place.Greedy; Place.Coolest_neighbor;
          Place.Annealed { seed = 42; iters = 200 } ])

let qcheck_sa_zero_is_greedy =
  QCheck2.Test.make
    ~name:"annealing at 0 iterations degrades exactly to greedy" ~count:100
    gen_tasks
    (fun ts ->
      let c = chip ~rows:2 ~cols:2 in
      let g = Place.run c Place.Greedy ts in
      let sa = Place.run c (Place.Annealed { seed = 99; iters = 0 }) ts in
      placements_equal g sa)

let qcheck_assignment_shape =
  QCheck2.Test.make
    ~name:"every task lands on exactly one in-range core" ~count:100
    gen_tasks
    (fun ts ->
      let c = chip ~rows:2 ~cols:3 in
      List.for_all
        (fun p ->
          let placed = Place.run c p ts in
          List.length placed.Place.assignment = List.length ts
          && List.for_all
               (fun (_, core) -> core >= 0 && core < Chip.num_cores c)
               placed.Place.assignment
          && List.for_all
               (fun t ->
                 List.mem_assoc t.Task.name placed.Place.assignment)
               ts)
        policies)

(* ------------------------------------------------------------------ *)
(* Incremental scorer == full rescore, bitwise.                        *)

(* Bitwise: the scorer's per-core terms must be the very floats a full
   rescore produces, not merely close ones. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let placements_bitwise (a : Place.placement) (b : Place.placement) =
  a.Place.policy = b.Place.policy
  && a.Place.assignment = b.Place.assignment
  && same_floats a.Place.core_temps_k b.Place.core_temps_k
  && same_floats a.Place.local_peak_k b.Place.local_peak_k
  && same_float a.Place.peak_k b.Place.peak_k
  && same_float a.Place.gradient_k b.Place.gradient_k
  && same_float a.Place.score b.Place.score
  && same_float a.Place.round_robin_peak_k b.Place.round_robin_peak_k

(* Chips 1x1, 1xN, Nx1, 8x8 and small rectangles; 0 tasks, 1 task, a
   few, and more tasks than cores. Per-cell powers vary within a task,
   so the stacking excess is exercised, and some tasks repeat the
   previous task's profile under a new name, so scores tie. *)
let gen_place_case =
  QCheck2.Gen.(
    let* rows, cols =
      oneof
        [ return (1, 1); pair (return 1) (int_range 2 9);
          pair (int_range 2 9) (return 1); return (8, 8);
          pair (int_range 1 5) (int_range 1 5) ]
    in
    let n = rows * cols in
    let* nt =
      oneof [ return 0; return 1; int_range 2 12; int_range (n + 1) (n + 8) ]
    in
    let ncells = Layout.num_cells small_core in
    let gen_task =
      let* cells = array_size (return ncells) (float_bound_inclusive 0.02) in
      let* mean = float_bound_inclusive 30.0 in
      let* extra = float_range (-2.0) 20.0 in
      return (cells, mean, extra)
    in
    let* profiles = list_size (return nt) (pair bool gen_task) in
    let tasks =
      List.rev
        (snd
           (List.fold_left
              (fun (prev, acc) (repeat, fresh) ->
                let cells, mean, extra =
                  match prev with Some p when repeat -> p | _ -> fresh
                in
                let t =
                  {
                    Task.name = Printf.sprintf "t%02d" (List.length acc);
                    peak_k = ambient +. mean +. extra;
                    mean_k = ambient +. mean;
                    cells_w = cells;
                  }
                in
                (Some (cells, mean, extra), t :: acc))
              (None, []) profiles))
    in
    let* seed = int_range 0 1000 in
    let* iters = oneof [ return 0; int_range 1 400 ] in
    return (rows, cols, tasks, seed, iters))

let print_place_case (rows, cols, tasks, seed, iters) =
  Printf.sprintf "%dx%d, %d tasks, seed %d, %d iters" rows cols
    (List.length tasks) seed iters

let qcheck_scorer_matches_full_rescore =
  QCheck2.Test.make
    ~name:"incremental scorer == full-rescore reference, bitwise" ~count:150
    ~print:print_place_case gen_place_case
    (fun (rows, cols, tasks, seed, iters) ->
      let c = chip ~rows ~cols in
      List.for_all
        (fun p ->
          placements_bitwise (Place.run c p tasks)
            (Place_reference.run c p tasks)
          || QCheck2.Test.fail_reportf "%s differs from the reference"
               (Place.policy_name p))
        [ Place.Round_robin; Place.Greedy; Place.Coolest_neighbor;
          Place.Annealed { seed; iters } ])

(* The shipped shape: 16 tasks on 8x8 cores of the standard 8x8 register
   file, the default 2000 annealing moves. *)
let test_scorer_full_shape () =
  let c = Chip.make ~rows:8 ~cols:8 () in
  let rng = Random.State.make [| 16 |] in
  let tasks =
    List.init 16 (fun i ->
        let cells = Array.init 64 (fun _ -> Random.State.float rng 0.001) in
        let mean = Random.State.float rng 30.0 in
        {
          Task.name = Printf.sprintf "k%02d" i;
          peak_k = ambient +. mean +. Random.State.float rng 25.0;
          mean_k = ambient +. mean;
          cells_w = cells;
        })
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Place.policy_name p ^ " equals the reference")
        true
        (placements_bitwise (Place.run c p tasks)
           (Place_reference.run c p tasks)))
    [ Place.Greedy; Place.Coolest_neighbor;
      Place.Annealed { seed = 7; iters = 2000 } ]

(* ------------------------------------------------------------------ *)
(* Brute-force differential oracle: <=6 tasks on <=3 cores.            *)

let oracle_instances =
  (* Deterministic instance set: sizes and profiles drawn from a fixed
     seed so the pass/fail statistics below are reproducible. *)
  let rng = Random.State.make [| 0xA110C |] in
  List.init 50 (fun k ->
      let n_tasks = 2 + Random.State.int rng 5 in
      let tasks =
        List.init n_tasks (fun i ->
            mk_task
              (Printf.sprintf "i%d-t%d" k i)
              ~mean_rise:(Random.State.float rng 25.0)
              ~extra:(Random.State.float rng 12.0))
      in
      let cols = 2 + Random.State.int rng 2 in
      (chip ~rows:1 ~cols, tasks))

let test_oracle_greedy_bound () =
  (* Greedy's excess-over-ambient score stays within 1.5x of the true
     optimum on every oracle instance (empirically it is optimal on
     most; the bound leaves room for the known greedy failure modes). *)
  List.iter
    (fun (c, tasks) ->
      let opt = Place.exhaustive c tasks in
      let g = Place.run c Place.Greedy tasks in
      let excess p = p.Place.score -. ambient in
      Alcotest.(check bool)
        (Printf.sprintf "greedy within 1.5x of optimum (%.3f vs %.3f)"
           (excess g) (excess opt))
        true
        (excess g <= (1.5 *. excess opt) +. 1e-9))
    oracle_instances

let test_oracle_never_below_optimum () =
  (* Sanity on the oracle itself: no policy can beat the exhaustive
     optimum's score. *)
  List.iter
    (fun (c, tasks) ->
      let opt = Place.exhaustive c tasks in
      List.iter
        (fun p ->
          let placed = Place.run c p tasks in
          Alcotest.(check bool) "exhaustive is a lower bound" true
            (placed.Place.score >= opt.Place.score -. 1e-9))
        policies)
    oracle_instances

let test_oracle_sa_finds_optimum () =
  (* SA at a fixed seed recovers the true optimum score on >=90% of the
     50 random instances. *)
  let hits =
    List.fold_left
      (fun acc (c, tasks) ->
        let opt = Place.exhaustive c tasks in
        let sa = Place.run c (Place.Annealed { seed = 1; iters = 2000 }) tasks in
        if sa.Place.score <= opt.Place.score +. 1e-6 then acc + 1 else acc)
      0 oracle_instances
  in
  Alcotest.(check bool)
    (Printf.sprintf "SA hit optimum on %d/50 instances" hits)
    true (hits >= 45)

let test_oracle_round_robin_suboptimal_somewhere () =
  (* The battery is vacuous if round-robin is always optimal; assert at
     least one oracle instance where thermal awareness actually pays. *)
  let beaten =
    List.exists
      (fun (c, tasks) ->
        let opt = Place.exhaustive c tasks in
        let rr = Place.run c Place.Round_robin tasks in
        rr.Place.score > opt.Place.score +. 1e-6)
      oracle_instances
  in
  Alcotest.(check bool) "round-robin beaten on some instance" true beaten

let suite =
  let tc = Alcotest.test_case in
  [
    ( "alloc.chip",
      [
        tc "geometry parse" `Quick test_geometry_parse;
        tc "make" `Quick test_chip_make;
        tc "solve zero power" `Quick test_chip_solve_zero_power;
        tc "solve energy balance" `Quick test_chip_solve_energy_balance;
        tc "solve lateral coupling" `Quick test_chip_solve_coupling;
        tc "solve validation" `Quick test_chip_solve_validation;
        QCheck_alcotest.to_alcotest qcheck_chip_solve_matches_gauss_seidel;
        QCheck_alcotest.to_alcotest qcheck_chip_solve_matches_dense;
      ] );
    ( "alloc.task",
      [
        tc "of_scalars inverts the vertical path" `Quick test_task_of_scalars;
        tc "clamps" `Quick test_task_clamps;
        tc "compare total order" `Quick test_task_compare_total_order;
      ] );
    ( "alloc.place",
      [
        tc "policy parse" `Quick test_policy_of_string;
        tc "evaluate validation" `Quick test_evaluate_validation;
        tc "exhaustive limit" `Quick test_exhaustive_limit;
        tc "empty and single task" `Quick test_empty_and_single;
        QCheck_alcotest.to_alcotest qcheck_permutation_invariant;
        QCheck_alcotest.to_alcotest qcheck_never_worse_than_blind;
        QCheck_alcotest.to_alcotest qcheck_sa_zero_is_greedy;
        QCheck_alcotest.to_alcotest qcheck_assignment_shape;
        tc "annealing honours cancel" `Quick test_anneal_cancel;
        QCheck_alcotest.to_alcotest qcheck_scorer_matches_full_rescore;
        tc "scorer == reference at the 8x8 shape" `Quick
          test_scorer_full_shape;
      ] );
    ( "alloc.oracle",
      [
        tc "greedy within bound of optimum" `Quick test_oracle_greedy_bound;
        tc "exhaustive is a lower bound" `Quick test_oracle_never_below_optimum;
        tc "SA finds the optimum on >=90%" `Quick test_oracle_sa_finds_optimum;
        tc "round-robin suboptimal somewhere" `Quick
          test_oracle_round_robin_suboptimal_somewhere;
      ] );
  ]
