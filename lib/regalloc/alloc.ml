open Tdfa_ir
open Tdfa_dataflow
open Tdfa_obs

type result = {
  func : Func.t;
  assignment : Assignment.t;
  spilled : Var.Set.t;
  rounds : int;
  max_pressure : int;
  loops : Loops.t;
}

(* The sums of Use_def.weighted_access_count, site for site: the defs in
   program order, then the uses — every instruction operand in program
   order, then every terminator use block by block — and the two partial
   sums added last. *)
type sums = { mutable defs : float; mutable uses : float }

let default_weights ?loops (func : Func.t) =
  let loops =
    match loops with Some l -> l | None -> Loops.analyze func
  in
  let sums = Var.Tbl.create 64 in
  let sums_of v =
    match Var.Tbl.find sums v with
    | s -> s
    | exception Not_found ->
      let s = { defs = 0.0; uses = 0.0 } in
      Var.Tbl.add sums v s;
      s
  in
  let freqs =
    List.map
      (fun (b : Block.t) ->
        let f = Loops.frequency loops b.Block.label in
        Array.iter
          (fun i ->
            List.iter
              (fun v ->
                let s = sums_of v in
                s.uses <- s.uses +. f)
              (Instr.uses i);
            match Instr.def i with
            | Some d ->
              let s = sums_of d in
              s.defs <- s.defs +. f
            | None -> ())
          b.Block.body;
        f)
      func.Func.blocks
  in
  List.iter2
    (fun (b : Block.t) f ->
      List.iter
        (fun v ->
          let s = sums_of v in
          s.uses <- s.uses +. f)
        (Block.term_uses b.Block.term))
    func.Func.blocks freqs;
  fun v ->
    match Var.Tbl.find sums v with
    | s -> s.defs +. s.uses
    | exception Not_found -> 0.0

let allocate ?(obs = Obs.null) ?(max_rounds = 16) ?weights func layout ~policy
    =
  (* Each phase is one span of the round; its arguments, counts computed
     from the phase's result, are built only for a tracing sink. *)
  let phase name round ?(counts = fun _ -> []) f =
    if not (Obs.tracing obs) then f ()
    else begin
      let ts_us = Obs.now_us obs in
      let r = f () in
      Obs.complete obs ~name ~ts_us ~dur_us:(Obs.now_us obs -. ts_us)
        ~args:(("round", Obs.Int round) :: counts r)
        ();
      r
    end
  in
  let cells = Tdfa_floorplan.Layout.num_cells layout in
  let rec attempt func all_spilled round =
    if round > max_rounds then
      failwith
        (Printf.sprintf "Alloc.allocate: no colouring after %d spill rounds"
           max_rounds);
    (* The loop analysis of this round's code: the default weights read
       it, and the result hands it on to the transfer configuration. *)
    let loops = lazy (Loops.analyze func) in
    let weights =
      match weights with
      | Some w -> w
      | None -> default_weights ~loops:(Lazy.force loops) func
    in
    let liveness =
      phase "regalloc.liveness" round (fun () -> Liveness.analyze func)
    in
    let graph =
      phase "regalloc.interference" round
        ~counts:(fun g ->
          [
            ("nodes", Obs.Int (Interference.size g));
            ("edges", Obs.Int (Interference.num_edges g));
          ])
        (fun () -> Interference.build func liveness)
    in
    let outcome =
      phase "regalloc.coloring" round
        ~counts:(fun o ->
          [ ("spilled", Obs.Int (Var.Set.cardinal o.Coloring.spilled)) ])
        (fun () -> Coloring.run graph layout ~policy ~weights)
    in
    if Var.Set.is_empty outcome.Coloring.spilled then begin
      Obs.observe obs "regalloc.rounds" (float_of_int round);
      {
        func;
        assignment = outcome.Coloring.assignment;
        spilled = all_spilled;
        rounds = round;
        max_pressure = Liveness.max_pressure liveness;
        loops = Lazy.force loops;
      }
    end
    else if cells < 2 then
      (* Spill code stores a value through a slot address held at the
         same time, so every later round needs two cells again: without
         this stop each round roughly doubles the code until the cap. *)
      failwith
        (Printf.sprintf
           "Alloc.allocate: the register file has %d cell but %d \
            variable(s) must spill, and spill code needs 2 cells at once"
           cells
           (Var.Set.cardinal outcome.Coloring.spilled))
    else begin
      Obs.incr obs
        ~by:(Var.Set.cardinal outcome.Coloring.spilled)
        "regalloc.spilled_vars";
      let func =
        phase "regalloc.spill" round (fun () ->
            Spill.rewrite
              ~slot_base:(Var.Set.cardinal all_spilled)
              func outcome.Coloring.spilled)
      in
      attempt func
        (Var.Set.union all_spilled outcome.Coloring.spilled)
        (round + 1)
    end
  in
  attempt func Var.Set.empty 1

let cell_of_var result v = Assignment.cell_of_var result.assignment v
