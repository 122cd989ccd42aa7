(* Quickstart: build a small function, allocate its registers, run the
   thermal data-flow analysis and look at the predicted map.

   Run with: dune exec examples/quickstart.exe *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc
open Tdfa_core

let () =
  (* 1. Build a function with the IR builder: sum the first n integers. *)
  let b = Builder.create ~name:"sum_to_n" ~params:[] in
  let acc = Builder.const b 0 in
  let i = Builder.const b 0 in
  let n = Builder.const b 100 in
  let one = Builder.const b 1 in
  let header = Label.of_string "header" in
  let body = Label.of_string "body" in
  let exit = Label.of_string "exit" in
  Builder.jump b header;
  Builder.start_block b header;
  let c = Builder.binop b Instr.Slt i n in
  Builder.branch b c body exit;
  Builder.start_block b body;
  Builder.emit b (Instr.Binop (Instr.Add, acc, acc, i));
  Builder.emit b (Instr.Binop (Instr.Add, i, i, one));
  Builder.jump b header;
  Builder.start_block b exit;
  Builder.ret b (Some acc);
  let func = Builder.finish b in
  print_endline (Printer.func_to_string func);

  (* 2. Allocate registers on an 8x8 register file with the first-fit
     policy (the hot-spot-prone default of Fig. 1a). *)
  let layout = Layout.make ~rows:8 ~cols:8 () in
  let alloc = Alloc.allocate func layout ~policy:Policy.First_fit in
  Printf.printf "\nregister pressure: %d, registers used: %d\n"
    alloc.Alloc.max_pressure
    (List.length (Assignment.cells_in_use alloc.Alloc.assignment));

  (* 3. Run the thermal data-flow analysis of Fig. 2 through the
     [Driver] facade (one config record, one entry point). *)
  let outcome =
    Tdfa.Driver.outcome
      (Tdfa.Driver.run (Tdfa.Driver.default ~layout)
         (Tdfa.Driver.Assigned (alloc.Alloc.func, alloc.Alloc.assignment)))
  in
  let info = Analysis.info outcome in
  Printf.printf "analysis %s after %d iterations\n"
    (if Analysis.converged outcome then "converged" else "did not converge")
    info.Analysis.iterations;

  (* 4. Inspect the predicted worst-case thermal map. *)
  let peak = Analysis.peak_map info in
  Printf.printf "predicted peak temperature: %.2f K\n\n"
    (Thermal_state.peak peak);
  print_string
    (Tdfa_thermal.Heatmap.render layout (Thermal_state.to_cell_array peak))
