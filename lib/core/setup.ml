open Tdfa_ir
open Tdfa_dataflow

let estimated_program_cycles (func : Func.t) loops =
  List.fold_left
    (fun acc (b : Block.t) ->
      let freq = Loops.frequency loops b.Block.label in
      acc +. (freq *. float_of_int (Block.num_instrs b + 1)))
    0.0 func.Func.blocks
