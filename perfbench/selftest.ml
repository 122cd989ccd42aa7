(* Self-test of the benchmark's inputs: the same seed yields
   byte-identical request streams, and a different seed changes them.
   Runs under [dune runtest]; silent unless a check fails. *)

let () =
  List.iter
    (fun workload ->
      let a = Workloads.stream ~workload ~seed:1 in
      let b = Workloads.stream ~workload ~seed:1 in
      let c = Workloads.stream ~workload ~seed:2 in
      if a = [] || not (List.equal String.equal a b) then
        failwith (workload ^ ": seed 1 does not reproduce its stream");
      if List.equal String.equal a c then
        failwith (workload ^ ": seeds 1 and 2 give the same stream"))
    Workloads.names
