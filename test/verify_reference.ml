(* Reference versions of two Tdfa_verify.Check rules, kept as their
   differential oracles (test_verify.ml): the Var.Set definite-assignment
   check that the bitset fixpoint replaced — an all-paths fixpoint that
   intersects predecessor facts initialised to every variable — and the
   post-allocation check that asked liveness for every instruction's set
   instead of walking each block once. The messages are built exactly
   as the checker's. *)

open Tdfa_ir
open Tdfa_dataflow

let diag ?label ?index rule fmt =
  Printf.ksprintf
    (fun violation -> { Tdfa_verify.Check.rule; label; index; violation })
    fmt

let defs_dominate_uses (f : Func.t) =
  let errs = ref [] in
  let order = Func.reverse_postorder f in
  let reach = Func.reachable f in
  let entry = Func.entry_label f in
  let params = Var.Set.of_list f.Func.params in
  let top = Func.all_vars f in
  let block_defs = Label.Tbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      let ds =
        Array.fold_left
          (fun acc i ->
            match Instr.def i with Some d -> Var.Set.add d acc | None -> acc)
          Var.Set.empty b.Block.body
      in
      Label.Tbl.replace block_defs b.Block.label ds)
    f.Func.blocks;
  (* Forward all-paths fixpoint: a variable is definitely assigned at a
     block entry iff it is assigned along every path from the function
     entry. Intersection join, initialised to top. *)
  let in_sets = Label.Tbl.create 16 in
  let out_sets = Label.Tbl.create 16 in
  List.iter (fun l -> Label.Tbl.replace out_sets l top) order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let input =
          if Label.equal l entry then params
          else
            let preds =
              List.filter (fun p -> Label.Set.mem p reach)
                (Func.predecessors f l)
            in
            match preds with
            | [] -> params
            | p :: rest ->
              List.fold_left
                (fun acc q -> Var.Set.inter acc (Label.Tbl.find out_sets q))
                (Label.Tbl.find out_sets p) rest
        in
        Label.Tbl.replace in_sets l input;
        let out = Var.Set.union input (Label.Tbl.find block_defs l) in
        if not (Var.Set.equal out (Label.Tbl.find out_sets l)) then begin
          Label.Tbl.replace out_sets l out;
          changed := true
        end)
      order
  done;
  let ever_defined = Func.defined_vars f in
  let rd = lazy (Reaching_defs.analyze f) in
  let explain l v =
    if not (Var.Set.mem v ever_defined) then "is never defined"
    else
      let sites =
        Reaching_defs.Def_set.elements
          (Reaching_defs.defs_of_var_at (Lazy.force rd) l v)
      in
      match sites with
      | [] -> "is not defined before this point on any path"
      | d :: _ ->
        Printf.sprintf
          "is not defined on every path to this point (one reaching def at \
           %s.%d)"
          (Label.to_string d.Reaching_defs.Def.label) d.Reaching_defs.Def.index
  in
  List.iter
    (fun l ->
      let b = Func.find_block f l in
      let assigned = ref (Label.Tbl.find in_sets l) in
      Array.iteri
        (fun index i ->
          List.iter
            (fun v ->
              if not (Var.Set.mem v !assigned) then
                errs :=
                  diag ~label:l ~index "use-undef" "read of %s which %s"
                    (Var.to_string v) (explain l v)
                  :: !errs)
            (Instr.uses i);
          match Instr.def i with
          | Some d -> assigned := Var.Set.add d !assigned
          | None -> ())
        b.Block.body;
      List.iter
        (fun v ->
          if not (Var.Set.mem v !assigned) then
            errs :=
              diag ~label:l "use-undef" "terminator reads %s which %s"
                (Var.to_string v) (explain l v)
              :: !errs)
        (Block.term_uses b.Block.term))
    order;
  List.rev !errs

let allocation ~layout (f : Func.t) assignment =
  let errs = ref [] in
  List.iter
    (fun (v, c) ->
      if not (Tdfa_floorplan.Layout.in_range layout c) then
        errs :=
          diag "reg-alloc" "%s is assigned cell %d outside the %dx%d layout"
            (Var.to_string v) c layout.Tdfa_floorplan.Layout.rows
            layout.Tdfa_floorplan.Layout.cols
          :: !errs)
    (Tdfa_regalloc.Assignment.bindings assignment);
  let live = Liveness.analyze f in
  let reported = Hashtbl.create 8 in
  let cell v = Tdfa_regalloc.Assignment.cell_of_var assignment v in
  let report ?index label v w c fmt_tail =
    let key = if Var.compare v w < 0 then (v, w) else (w, v) in
    if not (Hashtbl.mem reported key) then begin
      Hashtbl.replace reported key ();
      errs :=
        diag ~label ?index "reg-alloc" "%s and %s %s but share cell %d"
          (Var.to_string v) (Var.to_string w) fmt_tail c
        :: !errs
    end
  in
  (* Definition points: a def lands in its cell even when the defined
     variable is dead afterwards, so it clobbers any other variable live
     after the instruction that shares the cell. A move whose source
     shares the cell rewrites the same value (a coalesced pair) and is
     exempt. *)
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      Array.iteri
        (fun index i ->
          match Instr.def i with
          | None -> ()
          | Some d -> (
            match cell d with
            | None -> ()
            | Some c ->
              let exempt =
                match i with Instr.Unop (Instr.Mov, _, s) -> Some s | _ -> None
              in
              Var.Set.iter
                (fun w ->
                  let skip =
                    Var.equal w d
                    ||
                    match exempt with
                    | Some s -> Var.equal w s
                    | None -> false
                  in
                  if (not skip) && cell w = Some c then
                    report ~index l d w c "collide at a definition point")
                (Liveness.live_after_instr live l index)))
        b.Block.body)
    f.Func.blocks;
  (* Parameters are defined on entry: they may not share a cell with each
     other or with anything live into the entry block. *)
  let entry = Func.entry_label f in
  let entry_live = Liveness.live_in live entry in
  List.iteri
    (fun i p ->
      match cell p with
      | None -> ()
      | Some c ->
        List.iteri
          (fun j q ->
            if i < j && cell q = Some c then
              report entry p q c "are both parameters")
          f.Func.params;
        Var.Set.iter
          (fun w ->
            if (not (Var.equal w p)) && cell w = Some c then
              report entry p w c "collide at function entry")
          entry_live)
    f.Func.params;
  let check_set ?index label s =
    let by_cell = Hashtbl.create 8 in
    Var.Set.iter
      (fun v ->
        match Tdfa_regalloc.Assignment.cell_of_var assignment v with
        | Some c -> (
          match Hashtbl.find_opt by_cell c with
          | Some w ->
            let key =
              if Var.compare v w < 0 then (v, w) else (w, v)
            in
            if not (Hashtbl.mem reported key) then begin
              Hashtbl.replace reported key ();
              errs :=
                diag ~label ?index "reg-alloc"
                  "%s and %s are live together but share cell %d"
                  (Var.to_string v) (Var.to_string w) c
                :: !errs
            end
          | None -> Hashtbl.replace by_cell c v)
        | None -> ())
      s
  in
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      check_set l (Liveness.live_in live l);
      Array.iteri
        (fun i _ -> check_set ~index:i l (Liveness.live_after_instr live l i))
        b.Block.body)
    f.Func.blocks;
  List.rev !errs
