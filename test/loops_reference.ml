(* Reference dominators and natural loops: the versions that asked
   Func.predecessors per block per pass and rescanned the whole function
   for every constant query, kept verbatim as the differential oracle of
   Tdfa_dataflow.Dominators and Loops (test_dataflow.ml). *)

open Tdfa_ir

module Dominators = struct
  type t = { func : Func.t; doms : Label.Set.t Label.Tbl.t }

  let analyze (func : Func.t) =
    let order = Func.reverse_postorder func in
    let all = List.fold_left (fun s l -> Label.Set.add l s) Label.Set.empty order in
    let entry = Func.entry_label func in
    let doms = Label.Tbl.create 16 in
    List.iter
      (fun l ->
        Label.Tbl.replace doms l
          (if Label.equal l entry then Label.Set.singleton entry else all))
      order;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun l ->
          if not (Label.equal l entry) then begin
            let preds =
              List.filter (fun p -> Label.Tbl.mem doms p) (Func.predecessors func l)
            in
            let inter =
              match preds with
              | [] -> Label.Set.singleton l
              | p :: rest ->
                List.fold_left
                  (fun acc q -> Label.Set.inter acc (Label.Tbl.find doms q))
                  (Label.Tbl.find doms p) rest
            in
            let result = Label.Set.add l inter in
            if not (Label.Set.equal result (Label.Tbl.find doms l)) then begin
              Label.Tbl.replace doms l result;
              changed := true
            end
          end)
        order
    done;
    { func; doms }

  let dominators t l =
    match Label.Tbl.find_opt t.doms l with
    | Some s -> s
    | None -> Label.Set.singleton l

  let dominates t a b = Label.Set.mem a (dominators t b)

  let idom t l =
    if Label.equal l (Func.entry_label t.func) then None
    else
      let strict = Label.Set.remove l (dominators t l) in
      (* The immediate dominator is the strict dominator dominated by all
         other strict dominators. *)
      Label.Set.fold
        (fun cand acc ->
          let dominated_by_all =
            Label.Set.for_all (fun other -> dominates t other cand) strict
          in
          if dominated_by_all then Some cand else acc)
        strict None
end

module Loops = struct
  type loop = {
    header : Label.t;
    body : Label.Set.t;
    back_edges : Label.t list;
  }

  type t = { func : Func.t; loops : loop list; trips : int option Label.Tbl.t }

  let default_trip = 16

  (* Body of the natural loop of back edge latch->header: header plus every
     block reaching the latch without passing through the header. *)
  let natural_body func header latches =
    let body = ref (Label.Set.singleton header) in
    let rec visit l =
      if not (Label.Set.mem l !body) then begin
        body := Label.Set.add l !body;
        List.iter visit (Func.predecessors func l)
      end
    in
    List.iter visit latches;
    !body

  (* Best-effort constant value of a variable: its unique definition is a
     Const, or a move chain (of bounded depth) ending at one — splitting
     passes introduce such copies of loop constants. *)
  let const_value func v =
    let unique_def v =
      let defs =
        Func.fold_instrs
          (fun acc _ _ i ->
            match Instr.def i with
            | Some d when Var.equal d v -> i :: acc
            | Some _ | None -> acc)
          [] func
      in
      match defs with [ d ] -> Some d | _ -> None
    in
    let rec resolve v depth =
      if depth = 0 then None
      else
        match unique_def v with
        | Some (Instr.Const (_, k)) -> Some k
        | Some (Instr.Unop (Instr.Mov, _, s)) -> resolve s (depth - 1)
        | Some (Instr.Unop _ | Instr.Binop _ | Instr.Load _ | Instr.Store _
               | Instr.Call _ | Instr.Nop)
        | None ->
          None
    in
    resolve v 4

  (* Constant initial value of the induction variable: among its defs, the
     unique Const one. *)
  let const_init func v =
    let consts =
      Func.fold_instrs
        (fun acc _ _ i ->
          match i with
          | Instr.Const (d, k) when Var.equal d v -> k :: acc
          | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
          | Instr.Store _ | Instr.Call _ | Instr.Nop ->
            acc)
        [] func
    in
    match consts with [ k ] -> Some k | _ -> None

  (* Constant step: a unique [i <- i + s] (or [i <- i - s]) inside the loop
     body with [s] constant. *)
  let const_step func body v =
    let steps =
      Func.fold_instrs
        (fun acc label _ i ->
          if not (Label.Set.mem label body) then acc
          else
            match i with
            | Instr.Binop (Instr.Add, d, s1, s2)
              when Var.equal d v && Var.equal s1 v -> (
              match const_value func s2 with Some k -> k :: acc | None -> acc)
            | Instr.Binop (Instr.Sub, d, s1, s2)
              when Var.equal d v && Var.equal s1 v -> (
              match const_value func s2 with Some k -> -k :: acc | None -> acc)
            | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
            | Instr.Store _ | Instr.Call _ | Instr.Nop ->
              acc)
        [] func
    in
    match steps with [ k ] -> Some k | _ -> None

  (* Recover the [while (i < n)] idiom from the header: the branch condition
     defined in the header by [slt i n] (or [sle]). *)
  let estimate_trip func (l : loop) =
    let header = Func.find_block func l.header in
    match header.Block.term with
    | Block.Branch (cond, _, _) ->
      let compare_instr =
        Array.fold_left
          (fun acc i ->
            match i with
            | Instr.Binop ((Instr.Slt | Instr.Sle), d, _, _)
              when Var.equal d cond ->
              Some i
            | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
            | Instr.Store _ | Instr.Call _ | Instr.Nop ->
              acc)
          None header.Block.body
      in
      (match compare_instr with
       | Some (Instr.Binop (op, _, iv, bound)) -> (
         match (const_init func iv, const_value func bound, const_step func l.body iv) with
         | Some k0, Some kn, Some ks when ks > 0 && kn > k0 ->
           let span = kn - k0 + (match op with Instr.Sle -> 1 | _ -> 0) in
           Some (max 1 ((span + ks - 1) / ks))
         | _, _, _ -> None)
       | Some _ | None -> None)
    | Block.Jump _ | Block.Return _ -> None

  let analyze (func : Func.t) =
    let dom = Dominators.analyze func in
    (* Back edges: u -> h where h dominates u. Group latches per header. *)
    let latches_of = Label.Tbl.create 8 in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun succ ->
            if Dominators.dominates dom succ b.Block.label then begin
              let cur =
                match Label.Tbl.find_opt latches_of succ with
                | Some l -> l
                | None -> []
              in
              Label.Tbl.replace latches_of succ (b.Block.label :: cur)
            end)
          (Block.successors b.Block.term))
      func.Func.blocks;
    let loops =
      Label.Tbl.fold
        (fun header latches acc ->
          { header; body = natural_body func header latches; back_edges = latches }
          :: acc)
        latches_of []
    in
    (* Stable order: by header label, for reproducible reports. *)
    let loops =
      List.sort (fun a b -> Label.compare a.header b.header) loops
    in
    let trips = Label.Tbl.create 8 in
    List.iter
      (fun l -> Label.Tbl.replace trips l.header (estimate_trip func l))
      loops;
    { func; loops; trips }

  let loops t = t.loops

  let depth t l =
    List.length (List.filter (fun lp -> Label.Set.mem l lp.body) t.loops)

  let exact_trip_count t header =
    match Label.Tbl.find_opt t.trips header with
    | Some k -> k
    | None -> None

  let trip_count t header =
    match exact_trip_count t header with Some k -> k | None -> default_trip

  let frequency t l =
    List.fold_left
      (fun acc lp ->
        if Label.Set.mem l lp.body then acc *. float_of_int (trip_count t lp.header)
        else acc)
      1.0 t.loops
end
