(* Cross-cutting property-based tests (QCheck): randomized programs flow
   through the whole pipeline and the key invariants hold — spilling and
   scheduling preserve semantics, allocations are valid for random
   pressure, the thermal solver satisfies its equations, and the metric
   helpers obey their algebra. *)

open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_workload

let layout = Layout.make ~rows:8 ~cols:8 ()

let gen_program =
  QCheck2.Gen.(
    map
      (fun (seed, pool, depth) ->
        Generator.generate
          { Generator.default with Generator.seed; pool; depth })
      (triple (int_range 1 10_000) (int_range 2 20) (int_range 0 2)))

let observe f =
  let o = Tdfa_exec.Interp.run_func ~fuel:5_000_000 f in
  ( o.Tdfa_exec.Interp.return_value,
    List.filter (fun (a, _) -> a < Spill.base_address) o.Tdfa_exec.Interp.memory )

(* --- Whole-pipeline properties on random programs ------------------------- *)

let prop_generated_programs_valid =
  QCheck2.Test.make ~name:"generated programs validate" ~count:60 gen_program
    (fun f -> Validate.errors f = [])

let prop_spill_random_subset_preserves_semantics =
  QCheck2.Test.make ~name:"spilling any subset preserves semantics" ~count:40
    QCheck2.Gen.(pair gen_program (int_range 0 1_000_000))
    (fun (f, mask_seed) ->
      let rng = Random.State.make [| mask_seed |] in
      let candidates =
        Var.Set.elements (Func.defined_vars f)
        |> List.filter (fun v -> not (List.exists (Var.equal v) f.Func.params))
      in
      let chosen =
        List.filter (fun _ -> Random.State.bool rng) candidates
      in
      let f' = Spill.rewrite f (Var.Set.of_list chosen) in
      Validate.errors f' = [] && observe f = observe f')

let prop_allocation_valid_on_random_programs =
  QCheck2.Test.make ~name:"allocation valid on random programs" ~count:30
    gen_program (fun f ->
      let r = Alloc.allocate f layout ~policy:Policy.Thermal_spread in
      let live = Liveness.analyze r.Alloc.func in
      let cell v = Assignment.cell_of_var r.Alloc.assignment v in
      let ok = ref true in
      List.iter
        (fun (b : Block.t) ->
          let l = b.Block.label in
          let check s =
            let cells = List.filter_map cell (Var.Set.elements s) in
            if
              List.length cells
              <> List.length (List.sort_uniq Int.compare cells)
            then ok := false
          in
          check (Liveness.live_in live l);
          Array.iteri
            (fun i _ -> check (Liveness.live_after_instr live l i))
            b.Block.body)
        r.Alloc.func.Func.blocks;
      !ok)

let prop_schedule_preserves_semantics =
  QCheck2.Test.make ~name:"scheduling preserves semantics" ~count:40
    gen_program (fun f ->
      let cell v = Some (Hashtbl.hash (Var.to_string v) mod 64) in
      let f', _ =
        Tdfa_optim.Schedule.apply f ~cell_of_var:cell
          ~is_hot_cell:(fun _ -> false)
      in
      observe f = observe f')

let prop_cleanup_preserves_semantics =
  QCheck2.Test.make ~name:"cleanup passes preserve semantics" ~count:40
    gen_program (fun f -> observe f = observe (Tdfa_optim.Cleanup.run_all f))

let prop_unroll_preserves_semantics =
  QCheck2.Test.make ~name:"unrolling preserves semantics" ~count:30
    QCheck2.Gen.(pair gen_program (oneofl [ 2; 3; 4 ]))
    (fun (f, factor) ->
      let f', _ = Tdfa_optim.Unroll.apply f ~factor in
      observe f = observe f')

let prop_bundles_cover_block =
  QCheck2.Test.make ~name:"VLIW bundles cover each block exactly" ~count:40
    gen_program (fun f ->
      List.for_all
        (fun (b : Block.t) ->
          let bundles = Tdfa_vliw.Bundler.bundles_of_block ~width:4 b in
          let sorted l = List.sort compare l in
          sorted (List.concat bundles) = sorted (Array.to_list b.Block.body))
        f.Func.blocks)

let prop_interference_symmetric =
  QCheck2.Test.make ~name:"interference is symmetric and irreflexive" ~count:30
    gen_program (fun f ->
      let g = Interference.build f (Liveness.analyze f) in
      List.for_all
        (fun v ->
          (not (Interference.interferes g v v))
          && Var.Set.for_all
               (fun w -> Interference.interferes g w v)
               (Interference.neighbors g v))
        (Interference.vars g))

(* --- Thermal solver properties ---------------------------------------------- *)

let gen_power =
  QCheck2.Gen.(
    array_size (return 64) (map (fun x -> x *. 1.0e-3) (float_bound_inclusive 1.0)))

let prop_steady_state_solves_equations =
  QCheck2.Test.make ~name:"steady state satisfies G T = P" ~count:30 gen_power
    (fun power ->
      let model = Tdfa_thermal.Rc_model.build layout Tdfa_thermal.Params.default in
      let temps = Tdfa_thermal.Rc_model.steady_state ~tol:1e-9 model ~power in
      let deriv = Tdfa_thermal.Rc_model.derivative model ~temps ~power in
      Array.for_all (fun d -> Float.abs d < 1.0) deriv)

let prop_steady_state_monotone_in_power =
  QCheck2.Test.make ~name:"more power never cools any cell" ~count:30 gen_power
    (fun power ->
      let model = Tdfa_thermal.Rc_model.build layout Tdfa_thermal.Params.default in
      let t1 = Tdfa_thermal.Rc_model.steady_state model ~power in
      let boosted = Array.map (fun p -> p +. 1.0e-4) power in
      let t2 = Tdfa_thermal.Rc_model.steady_state model ~power:boosted in
      Array.for_all2 (fun a b -> b >= a -. 1e-6) t1 t2)

let prop_metrics_algebra =
  QCheck2.Test.make ~name:"metrics: min <= mean <= peak" ~count:100
    QCheck2.Gen.(
      array_size (return 64)
        (map (fun x -> 300.0 +. (x *. 50.0)) (float_bound_inclusive 1.0)))
    (fun temps ->
      let m = Tdfa_thermal.Metrics.summarize layout temps in
      m.Tdfa_thermal.Metrics.min_k <= m.Tdfa_thermal.Metrics.mean_k +. 1e-9
      && m.Tdfa_thermal.Metrics.mean_k <= m.Tdfa_thermal.Metrics.peak_k +. 1e-9
      && m.Tdfa_thermal.Metrics.range_k >= 0.0)

let prop_spearman_bounds =
  QCheck2.Test.make ~name:"spearman in [-1, 1] and reflexive" ~count:100
    QCheck2.Gen.(array_size (return 32) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Tdfa_core.Accuracy.spearman xs xs in
      let varying = Array.exists (fun x -> not (Float.equal x xs.(0))) xs in
      (if varying then Float.abs (s -. 1.0) < 1e-9 else Float.equal s 0.0)
      &&
      let ys = Array.map (fun x -> -.x) xs in
      let c = Tdfa_core.Accuracy.spearman xs ys in
      c >= -1.0 -. 1e-9 && c <= 1.0 +. 1e-9)

let prop_thermal_state_roundtrip =
  QCheck2.Test.make ~name:"thermal state cell-array roundtrip (g=1)" ~count:60
    QCheck2.Gen.(array_size (return 64) (float_bound_inclusive 500.0))
    (fun cells ->
      let s = Tdfa_core.Thermal_state.of_cell_array layout ~granularity:1 cells in
      Tdfa_core.Thermal_state.to_cell_array s = cells)

let prop_trace_window_totals =
  QCheck2.Test.make ~name:"windowed trace counts sum to totals" ~count:40
    QCheck2.Gen.(
      pair (int_range 1 200)
        (list_size (int_range 0 300) (pair (int_range 0 999) (int_range 0 63))))
    (fun (window_cycles, raw) ->
      let events =
        List.sort compare raw
        |> List.map (fun (cycle, cell) ->
               {
                 Tdfa_exec.Trace.cycle;
                 var = Var.of_string (Printf.sprintf "v%d" cell);
                 kind =
                   (if cell land 1 = 0 then Tdfa_exec.Trace.Read
                    else Tdfa_exec.Trace.Write);
               })
      in
      let t = Tdfa_exec.Trace.of_events ~cycles:1000 events in
      let cell_of_var v = int_of_string_opt (String.sub (Var.to_string v) 1 (String.length (Var.to_string v) - 1)) in
      let tr, tw =
        Tdfa_exec.Trace.access_counts t ~cell_of_var ~num_cells:64
      in
      let windows =
        Tdfa_exec.Trace.windowed_counts t ~cell_of_var ~num_cells:64
          ~window_cycles
      in
      let sr = Array.make 64 0 and sw = Array.make 64 0 in
      Array.iter
        (fun (r, w) ->
          Array.iteri (fun i x -> sr.(i) <- sr.(i) + x) r;
          Array.iteri (fun i x -> sw.(i) <- sw.(i) + x) w)
        windows;
      sr = tr && sw = tw)

let prop_compile_driver_preserves_semantics =
  QCheck2.Test.make ~name:"full compile driver preserves semantics" ~count:15
    QCheck2.Gen.(
      pair gen_program
        (oneofl
           Tdfa_optim.Compile.[ default_options; optimize_options ]))
    (fun (f, options) ->
      let r = Tdfa_optim.Compile.run ~options ~layout f in
      observe f = observe r.Tdfa_optim.Compile.func)

let prop_random_programs_interprocedurally_analyzable =
  QCheck2.Test.make ~name:"random multi-function programs analyse end-to-end"
    ~count:15
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 1 3))
    (fun (seed, funcs) ->
      let p =
        Generator.generate_program ~funcs
          { Generator.default with Generator.seed; pool = 6; depth = 1 }
      in
      let g = Tdfa_core.Callgraph.build p in
      (not (Tdfa_core.Callgraph.is_recursive g))
      &&
      let table = Hashtbl.create 4 in
      List.iter
        (fun (f : Func.t) ->
          let a = Alloc.allocate f layout ~policy:Policy.First_fit in
          Hashtbl.replace table f.Func.name a.Alloc.assignment)
        (Program.funcs p);
      let r =
        Tdfa_core.Interproc.run ~layout
          ~assignment_of:(fun (f : Func.t) -> Hashtbl.find table f.Func.name)
          p
      in
      List.for_all
        (fun (_, outcome) -> Tdfa_core.Analysis.converged outcome)
        r.Tdfa_core.Interproc.per_function
      &&
      (* The whole program also executes. *)
      match Tdfa_exec.Interp.run ~fuel:5_000_000 p "main" with
      | (_ : Tdfa_exec.Interp.outcome) -> true
      | exception Tdfa_exec.Interp.Out_of_fuel _ -> false)

(* --- No CLI-reachable configuration yields a non-finite temperature --- *)

(* Every value the analysis result holds (state and exit rows) and both
   maps derived from it. *)
let finite_result outcome =
  let info = Tdfa_core.Analysis.info outcome in
  let finite = Array.for_all Float.is_finite in
  let map m = Tdfa_core.Thermal_state.to_cell_array (m info) in
  finite info.Tdfa_core.Analysis.states
  && finite info.Tdfa_core.Analysis.exits
  && finite (map Tdfa_core.Analysis.peak_map)
  && finite (map Tdfa_core.Analysis.mean_map)

(* The knobs [tdfa analyze] accepts, over their accepted ranges. *)
let gen_delta = QCheck2.Gen.oneofl [ 0.0; 1e-6; 0.05; 1.0; 1e6 ]

let prop_cli_analyze_finite =
  QCheck2.Test.make
    ~name:"analyze: no CLI configuration yields a non-finite temperature"
    ~count:60
    ~print:(fun ((k, p, g), (d, pre_ra, recover)) ->
      Printf.sprintf "-k %s -p %s -g %d -d %g%s%s" k (Policy.name p) g d
        (if pre_ra then " --pre-ra" else "")
        (if recover then " --recover" else ""))
    QCheck2.Gen.(
      pair
        (triple
           (oneofl (List.map fst Kernels.all))
           (oneofl Policy.all) (int_range 1 9))
        (triple gen_delta bool bool))
    (fun ((kernel, policy, granularity), (delta, pre_ra, recover)) ->
      let _, r =
        Tdfa_serve.Render.analyze ~policy ~granularity ~delta ~pre_ra ~recover
          ~incremental:false (List.assoc kernel Kernels.all)
      in
      finite_result r.Tdfa.Driver.outcome)

(* [tdfa trace --zipf] on small layouts, run as [Render.trace] runs it. *)
let prop_cli_trace_finite =
  QCheck2.Test.make
    ~name:"trace: no CLI configuration yields a non-finite temperature"
    ~count:40
    QCheck2.Gen.(
      pair
        (triple (oneofl [ 1; 16; 64 ])
           (oneofl Tdfa_trace.Mapping.all_policies) (int_range 1 9))
        (triple gen_delta bool (int_range 0 1000)))
    (fun ((cells, policy, granularity), (delta, recover, seed)) ->
      let sample =
        Tdfa_trace.Synth.zipf ~seed ~s:1.0 ~addrs:256 ~n:400 ()
      in
      let compiled = Tdfa_trace.Compile.compile ~policy ~cells sample in
      let base =
        Tdfa.Driver.default ~layout:(Tdfa_trace.Compile.layout_of_cells cells)
      in
      let cfg =
        {
          base with
          Tdfa.Driver.granularity;
          recover;
          settings =
            { Tdfa_core.Analysis.default_settings with delta_k = delta };
        }
      in
      finite_result
        (Tdfa.Driver.run cfg (Tdfa_trace.Compile.driver_input compiled))
          .Tdfa.Driver.outcome)

let suite =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_generated_programs_valid;
          prop_spill_random_subset_preserves_semantics;
          prop_allocation_valid_on_random_programs;
          prop_schedule_preserves_semantics;
          prop_cleanup_preserves_semantics;
          prop_unroll_preserves_semantics;
          prop_bundles_cover_block;
          prop_interference_symmetric;
          prop_steady_state_solves_equations;
          prop_steady_state_monotone_in_power;
          prop_metrics_algebra;
          prop_spearman_bounds;
          prop_thermal_state_roundtrip;
          prop_trace_window_totals;
          prop_compile_driver_preserves_semantics;
          prop_random_programs_interprocedurally_analyzable;
          prop_cli_analyze_finite;
          prop_cli_trace_finite;
        ] );
  ]
