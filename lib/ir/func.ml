type t = { name : string; params : Var.t list; blocks : Block.t list }

let make ~name ~params blocks =
  if blocks = [] then invalid_arg "Func.make: no blocks";
  let seen = Label.Tbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      if Label.Tbl.mem seen b.Block.label then
        invalid_arg
          (Printf.sprintf "Func.make: duplicate label %s"
             (Label.to_string b.Block.label));
      Label.Tbl.add seen b.Block.label ())
    blocks;
  { name; params; blocks }

let entry f =
  match f.blocks with b :: _ -> b | [] -> assert false

let entry_label f = (entry f).Block.label

let find_block f l =
  let has (b : Block.t) = Label.equal b.Block.label l in
  match List.find_opt has f.blocks with
  | Some b -> b
  | None -> raise Not_found

let mem_block f l = List.exists (fun (b : Block.t) -> Label.equal b.Block.label l) f.blocks
let labels f = List.map (fun (b : Block.t) -> b.Block.label) f.blocks
let successors f l = Block.successors (find_block f l).Block.term

let predecessors f l =
  let preds =
    List.concat_map
      (fun (b : Block.t) ->
        List.filter_map
          (fun succ ->
            if Label.equal succ l then Some b.Block.label else None)
          (Block.successors b.Block.term))
      f.blocks
  in
  preds

let predecessor_table f =
  let preds = Label.Tbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun s ->
          let cur = Option.value ~default:[] (Label.Tbl.find_opt preds s) in
          Label.Tbl.replace preds s (b.Block.label :: cur))
        (Block.successors b.Block.term))
    f.blocks;
  Label.Tbl.filter_map_inplace (fun _ l -> Some (List.rev l)) preds;
  preds

let postorder f =
  let blocks = Label.Tbl.create 16 in
  List.iter (fun (b : Block.t) -> Label.Tbl.replace blocks b.Block.label b) f.blocks;
  let visited = Label.Tbl.create 16 in
  let order = ref [] in
  let rec visit l =
    (* Dangling branch targets are reported by Validate; traversal just
       ignores them. *)
    match Label.Tbl.find_opt blocks l with
    | Some b when not (Label.Tbl.mem visited l) ->
      Label.Tbl.add visited l ();
      List.iter visit (Block.successors b.Block.term);
      order := l :: !order
    | Some _ | None -> ()
  in
  visit (entry_label f);
  List.rev !order

let reverse_postorder f = List.rev (postorder f)

let reachable f =
  List.fold_left (fun acc l -> Label.Set.add l acc) Label.Set.empty (postorder f)

let instr_count f =
  List.fold_left (fun acc b -> acc + Block.num_instrs b) 0 f.blocks

let iter_instrs k f =
  List.iter
    (fun (b : Block.t) ->
      Array.iteri (fun i instr -> k b.Block.label i instr) b.Block.body)
    f.blocks

let fold_instrs k init f =
  List.fold_left
    (fun acc (b : Block.t) ->
      let acc = ref acc in
      Array.iteri (fun i instr -> acc := k !acc b.Block.label i instr) b.Block.body;
      !acc)
    init f.blocks

let map_blocks g f = { f with blocks = List.map g f.blocks }

let replace_block f (b : Block.t) =
  let swap (b' : Block.t) =
    if Label.equal b'.Block.label b.Block.label then b else b'
  in
  { f with blocks = List.map swap f.blocks }

let defined_vars f =
  let from_params =
    List.fold_left (fun acc v -> Var.Set.add v acc) Var.Set.empty f.params
  in
  fold_instrs
    (fun acc _ _ i ->
      match Instr.def i with Some d -> Var.Set.add d acc | None -> acc)
    from_params f

let all_vars f =
  let defs = defined_vars f in
  let with_uses =
    fold_instrs
      (fun acc _ _ i ->
        List.fold_left (fun acc v -> Var.Set.add v acc) acc (Instr.uses i))
      defs f
  in
  List.fold_left
    (fun acc (b : Block.t) ->
      List.fold_left
        (fun acc v -> Var.Set.add v acc)
        acc
        (Block.term_uses b.Block.term))
    with_uses f.blocks

let pp ppf f =
  let pp_params ppf params =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      Var.pp ppf params
  in
  Format.fprintf ppf "func @%s(%a) {@\n" f.name pp_params f.params;
  List.iter (fun b -> Format.fprintf ppf "%a@\n" Block.pp b) f.blocks;
  Format.fprintf ppf "}"
