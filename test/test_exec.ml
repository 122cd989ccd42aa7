(* Tests of the interpreter, the trace module and the thermal driver. *)

open Tdfa_ir
open Tdfa_exec

let var = Var.of_string

(* --- Interpreter: functional correctness ------------------------------- *)

let test_fib_value () =
  let o = Interp.run_func (Tdfa_workload.Kernels.fib ~n:10 ()) in
  Alcotest.(check (option int)) "fib(10) loop value" (Some 55) o.Interp.return_value

let test_sum_loop () =
  (* sum 0..n-1 via the builder scaffold. *)
  let b = Builder.create ~name:"sum" ~params:[] in
  let acc = Builder.const b 0 in
  let (_ : Var.t) =
    Tdfa_workload.Kernels.counted_loop b ~count:10 (fun i ->
        Builder.emit b (Instr.Binop (Instr.Add, acc, acc, i)))
  in
  Builder.ret b (Some acc);
  let o = Interp.run_func (Builder.finish b) in
  Alcotest.(check (option int)) "sum 0..9" (Some 45) o.Interp.return_value

let test_memory_roundtrip () =
  let b = Builder.create ~name:"mem" ~params:[] in
  let base = Builder.const b 100 in
  let v = Builder.const b 7 in
  Builder.store b ~value:v ~base 5;
  let r = Builder.load b ~base 5 in
  Builder.ret b (Some r);
  let o = Interp.run_func (Builder.finish b) in
  Alcotest.(check (option int)) "store/load" (Some 7) o.Interp.return_value;
  Alcotest.(check bool) "memory recorded" true
    (List.mem (105, 7) o.Interp.memory)

let test_uninitialised_memory_deterministic () =
  let b = Builder.create ~name:"read" ~params:[] in
  let base = Builder.const b 100 in
  let r = Builder.load b ~base 0 in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  let o1 = Interp.run_func f in
  let o2 = Interp.run_func f in
  Alcotest.(check (option int)) "same pattern" o1.Interp.return_value
    o2.Interp.return_value

let test_params_passed () =
  let b = Builder.create ~name:"addp" ~params:[ "x"; "y" ] in
  let s = Builder.binop b Instr.Add (Builder.param b 0) (Builder.param b 1) in
  Builder.ret b (Some s);
  let o = Interp.run_func ~args:[ 30; 12 ] (Builder.finish b) in
  Alcotest.(check (option int)) "30+12" (Some 42) o.Interp.return_value

let test_missing_args_default_zero () =
  let b = Builder.create ~name:"addp" ~params:[ "x"; "y" ] in
  let s = Builder.binop b Instr.Add (Builder.param b 0) (Builder.param b 1) in
  Builder.ret b (Some s);
  let o = Interp.run_func ~args:[ 5 ] (Builder.finish b) in
  Alcotest.(check (option int)) "5+0" (Some 5) o.Interp.return_value

let test_call_between_functions () =
  let callee =
    let b = Builder.create ~name:"double" ~params:[ "x" ] in
    let two = Builder.const b 2 in
    let r = Builder.binop b Instr.Mul (Builder.param b 0) two in
    Builder.ret b (Some r);
    Builder.finish b
  in
  let caller =
    let b = Builder.create ~name:"main" ~params:[] in
    let x = Builder.const b 21 in
    let r = Builder.call b "double" [ x ] in
    Builder.ret b (Some r);
    Builder.finish b
  in
  let p = Program.of_funcs [ caller; callee ] in
  let o = Interp.run p "main" in
  Alcotest.(check (option int)) "call result" (Some 42) o.Interp.return_value

let test_unknown_callee_raises () =
  let b = Builder.create ~name:"main" ~params:[] in
  Builder.call_void b "missing" [];
  Builder.ret b None;
  let f = Builder.finish b in
  Alcotest.(check bool) "runtime error" true
    (match Interp.run_func f with
     | (_ : Interp.outcome) -> false
     | exception Interp.Runtime_error _ -> true)

let test_runaway_recursion_guarded () =
  (* f() { return f(); } — infinite recursion must fail cleanly. *)
  let b = Builder.create ~name:"f" ~params:[] in
  let r = Builder.call b "f" [] in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  Alcotest.(check bool) "depth guard fires" true
    (match Interp.run_func ~fuel:100_000_000 f with
     | (_ : Interp.outcome) -> false
     | exception Interp.Runtime_error _ -> true
     | exception Interp.Out_of_fuel _ -> true)

let test_bounded_recursion_works () =
  (* Recursive factorial within the depth limit. *)
  let b = Builder.create ~name:"fact" ~params:[ "n" ] in
  let n = Builder.param b 0 in
  let one = Builder.const b 1 in
  let stop = Builder.binop b Instr.Sle n one in
  let l_base = Label.of_string "base" in
  let l_rec = Label.of_string "rec" in
  Builder.branch b stop l_base l_rec;
  Builder.start_block b l_base;
  Builder.ret b (Some one);
  Builder.start_block b l_rec;
  let m = Builder.binop b Instr.Sub n one in
  let sub = Builder.call b "fact" [ m ] in
  let r = Builder.binop b Instr.Mul n sub in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  let o = Interp.run_func ~args:[ 10 ] f in
  Alcotest.(check (option int)) "10!" (Some 3628800) o.Interp.return_value

let test_out_of_fuel () =
  (* An infinite loop must hit the fuel limit. *)
  let lbl = Label.of_string in
  let f =
    Func.make ~name:"inf" ~params:[]
      [ Block.make (lbl "entry") [] (Block.Jump (lbl "entry")) ]
  in
  Alcotest.(check bool) "out of fuel" true
    (match Interp.run_func ~fuel:1000 f with
     | (_ : Interp.outcome) -> false
     | exception Interp.Out_of_fuel _ -> true)

let test_exec_counts () =
  let o = Interp.run_func (Tdfa_workload.Kernels.fib ~n:10 ()) in
  (* The loop body runs exactly 10 times. *)
  let body_count =
    Label.Map.fold
      (fun _ c acc -> max acc c)
      o.Interp.exec_counts 0
  in
  Alcotest.(check bool) "body ran 10 or 11 times (header)" true
    (body_count >= 10 && body_count <= 11)

(* --- Traces -------------------------------------------------------------- *)

let test_trace_cycles_nondecreasing () =
  let o = Interp.run_func (Tdfa_workload.Kernels.crc ~bytes:4 ()) in
  let prev = ref (-1) in
  Trace.iter
    (fun e ->
      if e.Trace.cycle < !prev then Alcotest.fail "cycle went backwards";
      prev := e.Trace.cycle)
    o.Interp.trace

let test_trace_counts_match_instr_shape () =
  (* A single add: two reads, one write. *)
  let b = Builder.create ~name:"one" ~params:[ "x" ] in
  let x = Builder.param b 0 in
  let s = Builder.binop b Instr.Add x x in
  Builder.ret b (Some s);
  let o = Interp.run_func (Builder.finish b) in
  let reads =
    Array.fold_left
      (fun acc e -> if e.Trace.kind = Trace.Read then acc + 1 else acc)
      0
      (Trace.events o.Interp.trace)
  in
  let writes =
    Array.fold_left
      (fun acc e -> if e.Trace.kind = Trace.Write then acc + 1 else acc)
      0
      (Trace.events o.Interp.trace)
  in
  (* add reads x twice, writes s once; ret reads s once. *)
  Alcotest.(check int) "reads" 3 reads;
  Alcotest.(check int) "writes" 1 writes

let mk_trace events cycles = Trace.of_events ~cycles events

let test_access_counts_mapping () =
  let events =
    [
      { Trace.cycle = 0; var = var "a"; kind = Trace.Read };
      { Trace.cycle = 1; var = var "a"; kind = Trace.Write };
      { Trace.cycle = 2; var = var "b"; kind = Trace.Read };
      { Trace.cycle = 3; var = var "spilled"; kind = Trace.Read };
    ]
  in
  let t = mk_trace events 4 in
  let cell_of_var v =
    match Var.to_string v with "a" -> Some 0 | "b" -> Some 3 | _ -> None
  in
  let reads, writes = Trace.access_counts t ~cell_of_var ~num_cells:4 in
  Alcotest.(check int) "a reads" 1 reads.(0);
  Alcotest.(check int) "a writes" 1 writes.(0);
  Alcotest.(check int) "b reads" 1 reads.(3);
  Alcotest.(check int) "unmapped dropped" 0 (reads.(1) + reads.(2))

let test_windowed_counts_sum_to_totals () =
  let o = Interp.run_func (Tdfa_workload.Kernels.dotprod ~n:16 ()) in
  let alloc =
    Tdfa_regalloc.Alloc.allocate (Tdfa_workload.Kernels.dotprod ~n:16 ())
      (Tdfa_floorplan.Layout.make ~rows:8 ~cols:8 ())
      ~policy:Tdfa_regalloc.Policy.First_fit
  in
  ignore alloc;
  let cell_of_var v = Some (Hashtbl.hash (Var.to_string v) mod 64) in
  let totals_r, totals_w =
    Trace.access_counts o.Interp.trace ~cell_of_var ~num_cells:64
  in
  let windows =
    Trace.windowed_counts o.Interp.trace ~cell_of_var ~num_cells:64
      ~window_cycles:50
  in
  let sum_r = Array.make 64 0 and sum_w = Array.make 64 0 in
  Array.iter
    (fun (r, w) ->
      Array.iteri (fun i x -> sum_r.(i) <- sum_r.(i) + x) r;
      Array.iteri (fun i x -> sum_w.(i) <- sum_w.(i) + x) w)
    windows;
  Alcotest.(check bool) "windowed reads sum to totals" true (sum_r = totals_r);
  Alcotest.(check bool) "windowed writes sum to totals" true (sum_w = totals_w)

let test_per_var_counts () =
  let events =
    [
      { Trace.cycle = 0; var = var "a"; kind = Trace.Read };
      { Trace.cycle = 0; var = var "a"; kind = Trace.Write };
      { Trace.cycle = 1; var = var "b"; kind = Trace.Read };
    ]
  in
  let t = mk_trace events 2 in
  let counts = Trace.per_var_counts t in
  Alcotest.(check (option int)) "a" (Some 2) (Var.Map.find_opt (var "a") counts);
  Alcotest.(check (option int)) "b" (Some 1) (Var.Map.find_opt (var "b") counts)

(* --- Driver ---------------------------------------------------------------- *)

let layout = Tdfa_floorplan.Layout.make ~rows:4 ~cols:4 ()
let model = Tdfa_thermal.Rc_model.build layout Tdfa_thermal.Params.default

let test_power_of_counts () =
  let p = Tdfa_thermal.Params.default in
  let reads = Array.make 16 0 and writes = Array.make 16 0 in
  reads.(2) <- 1000;
  (* 1000 reads in 1000 cycles at 1 GHz: P = E_read * 1e9. *)
  let power =
    Driver.power_of_counts p ~window_cycles:1000 ~reads ~writes
  in
  Alcotest.(check (float 1e-9))
    "every-cycle read power"
    (p.Tdfa_thermal.Params.read_energy_j *. p.Tdfa_thermal.Params.clock_hz)
    power.(2);
  Alcotest.(check (float 1e-15)) "idle cell" 0.0 power.(0)

let test_steady_temps_hot_cell () =
  (* A trace hammering one cell yields its hottest temperature there. *)
  let events =
    List.init 2000 (fun i ->
        { Trace.cycle = i; var = var "h"; kind = Trace.Read })
  in
  let t = mk_trace events 2000 in
  let temps =
    Driver.steady_temps model t ~cell_of_var:(fun v ->
        if Var.equal v (var "h") then Some 5 else None)
  in
  Alcotest.(check int) "hottest at cell 5" 5 (Tdfa_thermal.Metrics.peak_cell temps);
  Alcotest.(check bool) "above ambient" true
    (temps.(5) > Tdfa_thermal.Params.default.Tdfa_thermal.Params.ambient_k)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "exec.interp",
      [
        tc "fib value" `Quick test_fib_value;
        tc "sum loop" `Quick test_sum_loop;
        tc "memory roundtrip" `Quick test_memory_roundtrip;
        tc "deterministic uninitialised memory" `Quick
          test_uninitialised_memory_deterministic;
        tc "parameters" `Quick test_params_passed;
        tc "missing args default" `Quick test_missing_args_default_zero;
        tc "cross-function call" `Quick test_call_between_functions;
        tc "unknown callee" `Quick test_unknown_callee_raises;
        tc "runaway recursion guarded" `Quick test_runaway_recursion_guarded;
        tc "bounded recursion works" `Quick test_bounded_recursion_works;
        tc "out of fuel" `Quick test_out_of_fuel;
        tc "exec counts" `Quick test_exec_counts;
      ] );
    ( "exec.trace",
      [
        tc "cycles nondecreasing" `Quick test_trace_cycles_nondecreasing;
        tc "counts match instr shape" `Quick test_trace_counts_match_instr_shape;
        tc "access counts mapping" `Quick test_access_counts_mapping;
        tc "windowed sums to totals" `Quick test_windowed_counts_sum_to_totals;
        tc "per-var counts" `Quick test_per_var_counts;
      ] );
    ( "exec.driver",
      [
        tc "power of counts" `Quick test_power_of_counts;
        tc "steady temps hot cell" `Quick test_steady_temps_hot_cell;
      ] );
  ]
