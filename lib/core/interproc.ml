open Tdfa_ir
open Tdfa_dataflow
open Tdfa_thermal

type summary = {
  energy_rate_j_per_cycle : float array;
  cycles : float;
}

(* The access events a call site contributes: the callee's per-cell
   energy rate expressed as equivalent unit reads per cycle. *)
let events_of_summary (p : Params.t) (s : summary) =
  let events = ref [] in
  Array.iteri
    (fun cell rate ->
      if rate > 0.0 then
        events :=
          Access.event ~weight:(rate /. p.Params.read_energy_j) cell Access.Read
          :: !events)
    s.energy_rate_j_per_cycle;
  List.rev !events

let summarize ?(params = Params.default) ~layout ~callee_summary
    (func : Func.t) assignment =
  let loops = Loops.analyze func in
  let n = Tdfa_floorplan.Layout.num_cells layout in
  let energy = Array.make n 0.0 in
  let cycles = ref 0.0 in
  let add_events freq events =
    List.iter
      (fun (e : Access.event) ->
        let per_access =
          match e.Access.kind with
          | Access.Read -> params.Params.read_energy_j
          | Access.Write -> params.Params.write_energy_j
        in
        energy.(e.Access.cell) <-
          energy.(e.Access.cell) +. (freq *. e.Access.weight *. per_access))
      events
  in
  List.iter
    (fun (b : Block.t) ->
      let freq = Loops.frequency loops b.Block.label in
      cycles := !cycles +. (freq *. float_of_int (Block.num_instrs b + 1));
      Array.iter
        (fun i ->
          add_events freq (Access.of_instr assignment i);
          match i with
          | Instr.Call (_, callee, _) -> (
            match callee_summary callee with
            | Some s ->
              (* The callee runs [freq] times; fold its whole-invocation
                 energy and its duration in. *)
              Array.iteri
                (fun cell rate ->
                  energy.(cell) <- energy.(cell) +. (freq *. rate *. s.cycles))
                s.energy_rate_j_per_cycle;
              cycles := !cycles +. (freq *. s.cycles)
            | None -> ())
          | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
          | Instr.Store _ | Instr.Nop ->
            ())
        b.Block.body;
      add_events freq (Access.of_terminator assignment b.Block.term))
    func.Func.blocks;
  let total_cycles = Float.max 1.0 !cycles in
  {
    energy_rate_j_per_cycle = Array.map (fun e -> e /. total_cycles) energy;
    cycles = total_cycles;
  }

type result = {
  order : string list;
  per_function : (string * Analysis.outcome) list;
  program_peak : Thermal_state.t;
  summaries : (string * summary) list;
}

let run ?(params = Params.default) ?granularity ?analysis_dt_s ?settings
    ~layout ~assignment_of program =
  let graph = Callgraph.build program in
  let order = Callgraph.topological_order graph in
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 8 in
  let outcomes = ref [] in
  let callee_summary name = Hashtbl.find_opt summaries name in
  List.iter
    (fun name ->
      match Program.find program name with
      | None -> ()
      | Some func ->
        let assignment = assignment_of func in
        let accesses_of_instr _ _ i =
          let own = Access.of_instr assignment i in
          match i with
          | Instr.Call (_, callee, _) -> (
            match callee_summary callee with
            | Some s -> own @ events_of_summary params s
            | None -> own)
          | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
          | Instr.Store _ | Instr.Nop ->
            own
        in
        let cfg =
          {
            (Transfer.of_assignment ~params ?granularity ?analysis_dt_s
               ~layout func assignment)
            with
            Transfer.accesses_of_instr;
          }
        in
        let outcome = Analysis.fixpoint ?settings cfg func in
        outcomes := (name, outcome) :: !outcomes;
        Hashtbl.replace summaries name
          (summarize ~params ~layout ~callee_summary func assignment))
    order;
  let per_function = List.rev !outcomes in
  let program_peak =
    match per_function with
    | [] -> invalid_arg "Interproc.run: empty program"
    | (_, first) :: rest ->
      List.fold_left
        (fun acc (_, outcome) ->
          Thermal_state.join_max acc (Analysis.peak_map (Analysis.info outcome)))
        (Thermal_state.copy (Analysis.peak_map (Analysis.info first)))
        rest
  in
  {
    order;
    per_function;
    program_peak;
    summaries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) summaries [];
  }
