(* The bytecode entries of the C stubs against the boxed OCaml
   references, bitwise: a flat fixpoint on a 5x7 register file (whose
   rows have an odd interior point and a vector pair) against the boxed
   one, and one sequential flat steady solve against
   Rc_model.steady_state. Exits 1 on any difference. *)

open Tdfa_floorplan
open Tdfa_core

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let check name ok =
  if not ok then begin
    prerr_endline (name ^ ": the bytecode stub differs from the boxed reference");
    exit 1
  end

let () =
  let layout = Layout.make ~rows:5 ~cols:7 () in
  let config = Tdfa.Driver.default ~layout in
  let func = Tdfa_workload.Kernels.fir () in
  let run core =
    Analysis.info
      (Tdfa.Driver.run { config with Tdfa.Driver.core }
         (Tdfa.Driver.Unallocated func))
        .Tdfa.Driver.outcome
  in
  let boxed = run Analysis.Boxed and flat = run Analysis.Flat in
  check "5x7 fixpoint, flat vs boxed"
    (boxed.Analysis.iterations = flat.Analysis.iterations
    && bits_equal boxed.Analysis.states flat.Analysis.states
    && bits_equal boxed.Analysis.exits flat.Analysis.exits);
  let model = Tdfa_thermal.Rc_model.build layout Tdfa_thermal.Params.default in
  let power =
    Array.init (Layout.num_cells layout) (fun i ->
        float_of_int ((i * 37) mod 11) *. 1.0e-4)
  in
  check "5x7 steady solve, flat vs boxed"
    (bits_equal
       (Tdfa_thermal.Rc_model.steady_state model ~power)
       (Tdfa_thermal.Rc_flat.solve_seq (Tdfa_thermal.Rc_flat.make model) ~power))
