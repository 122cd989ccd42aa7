open Tdfa_ir

let base_address = 1_000_000
let temp_prefix = "spl_"

let is_temp v = String.starts_with ~prefix:temp_prefix (Var.to_string v)

(* One past the highest temporary index already defined in [func], so
   a later spill round never reuses an earlier round's names: two
   unrelated short live ranges under one name would become one
   variable to liveness and interference. 0 on a function without
   spill code, which keeps the first round's names. *)
let temp_base (func : Func.t) =
  let skip = String.length temp_prefix + 1 in
  Var.Set.fold
    (fun v acc ->
      let s = Var.to_string v in
      if String.length s > skip && String.starts_with ~prefix:temp_prefix s
      then
        match int_of_string_opt (String.sub s skip (String.length s - skip)) with
        | Some k when k >= acc -> k + 1
        | Some _ | None -> acc
      else acc)
    (Func.defined_vars func) 0

let rewrite ?(slot_base = 0) (func : Func.t) spilled =
  if Var.Set.is_empty spilled then func
  else begin
    let slots = Var.Tbl.create 8 in
    List.iteri
      (fun i v -> Var.Tbl.replace slots v (slot_base + i))
      (Var.Set.elements spilled);
    let slot v = Var.Tbl.find slots v in
    let counter = ref (temp_base func) in
    let fresh prefix =
      let v = Var.of_string (Printf.sprintf "%s%s%d" temp_prefix prefix !counter) in
      incr counter;
      v
    in
    (* Emit "load v's slot into tmp": const + load. *)
    let load_of v =
      let base = fresh "b" in
      let tmp = fresh "u" in
      ( tmp,
        [ Instr.Const (base, base_address); Instr.Load (tmp, base, slot v) ] )
    in
    let store_of v tmp =
      let base = fresh "b" in
      [ Instr.Const (base, base_address); Instr.Store (tmp, base, slot v) ]
    in
    let rewrite_instr i =
      (* Loads for spilled uses (one temp per distinct spilled use). *)
      let used = List.sort_uniq Var.compare (Instr.uses i) in
      let spilled_uses = List.filter (fun v -> Var.Set.mem v spilled) used in
      let mapping, preludes =
        List.fold_left
          (fun (m, ps) v ->
            let tmp, code = load_of v in
            (Var.Map.add v tmp m, ps @ code))
          (Var.Map.empty, []) spilled_uses
      in
      let subst v =
        match Var.Map.find_opt v mapping with Some t -> t | None -> v
      in
      let i = Instr.map_uses subst i in
      match Instr.def i with
      | Some d when Var.Set.mem d spilled ->
        let tmp = fresh "d" in
        let i = Instr.map_def (fun _ -> tmp) i in
        preludes @ [ i ] @ store_of d tmp
      | Some _ | None -> preludes @ [ i ]
    in
    let rewrite_term (b : Block.t) =
      let used =
        List.sort_uniq Var.compare (Block.term_uses b.Block.term)
      in
      let spilled_uses = List.filter (fun v -> Var.Set.mem v spilled) used in
      if spilled_uses = [] then ([], b.Block.term)
      else begin
        let mapping, preludes =
          List.fold_left
            (fun (m, ps) v ->
              let tmp, code = load_of v in
              (Var.Map.add v tmp m, ps @ code))
            (Var.Map.empty, []) spilled_uses
        in
        let subst v =
          match Var.Map.find_opt v mapping with Some t -> t | None -> v
        in
        let term =
          match b.Block.term with
          | Block.Jump l -> Block.Jump l
          | Block.Branch (c, t, e) -> Block.Branch (subst c, t, e)
          | Block.Return (Some v) -> Block.Return (Some (subst v))
          | Block.Return None -> Block.Return None
        in
        (preludes, term)
      end
    in
    let entry = Func.entry_label func in
    let blocks =
      List.map
        (fun (b : Block.t) ->
          let body =
            Array.to_list b.Block.body |> List.concat_map rewrite_instr
          in
          (* Spilled parameters are materialised into their slots at the
             top of the entry block. *)
          let param_stores =
            if Label.equal b.Block.label entry then
              List.concat_map
                (fun p ->
                  if Var.Set.mem p spilled then store_of p p else [])
                func.Func.params
            else []
          in
          let preludes, term = rewrite_term b in
          Block.make b.Block.label (param_stores @ body @ preludes) term)
        func.Func.blocks
    in
    Func.make ~name:func.Func.name ~params:func.Func.params blocks
  end
