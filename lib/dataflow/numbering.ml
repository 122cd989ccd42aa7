open Tdfa_ir

type block = {
  label : Label.t;
  body : Instr.t array;
  defs : int array;
  use_at : int array;
  use_ids : int array;
  term_ids : int array;
  succs : int array;
}

type t = {
  func : Func.t;
  vars : Var.t array;
  ids : int Var.Tbl.t;
  blocks : block array;
  positions : int Label.Tbl.t;
  postorder : int array;
}

let num_uses = function
  | Instr.Const _ | Instr.Nop -> 0
  | Instr.Unop _ | Instr.Load _ -> 1
  | Instr.Binop _ | Instr.Store _ -> 2
  | Instr.Call (_, _, args) -> List.length args

let make (func : Func.t) =
  (* Provisional ids in first-seen order, ranked by name at the end. *)
  let ids = Var.Tbl.create 64 in
  let seen = ref [] and count = ref 0 in
  let intern v =
    match Var.Tbl.find ids v with
    | i -> i
    | exception Not_found ->
      let i = !count in
      Var.Tbl.add ids v i;
      seen := v :: !seen;
      incr count;
      i
  in
  List.iter (fun p -> ignore (intern p)) func.Func.params;
  let source = Array.of_list func.Func.blocks in
  let positions = Label.Tbl.create (2 * Array.length source) in
  Array.iteri (fun p (b : Block.t) -> Label.Tbl.replace positions b.Block.label p) source;
  let encode (b : Block.t) =
    let body = b.Block.body in
    let n = Array.length body in
    let defs = Array.make n (-1) and use_at = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      use_at.(i + 1) <- use_at.(i) + num_uses body.(i)
    done;
    let use_ids = Array.make use_at.(n) 0 in
    for i = 0 to n - 1 do
      let at = use_at.(i) in
      match body.(i) with
      | Instr.Const (d, _) -> defs.(i) <- intern d
      | Instr.Unop (_, d, s) | Instr.Load (d, s, _) ->
        use_ids.(at) <- intern s;
        defs.(i) <- intern d
      | Instr.Binop (_, d, s1, s2) ->
        use_ids.(at) <- intern s1;
        use_ids.(at + 1) <- intern s2;
        defs.(i) <- intern d
      | Instr.Store (v, base, _) ->
        use_ids.(at) <- intern v;
        use_ids.(at + 1) <- intern base
      | Instr.Call (d, _, args) ->
        List.iteri (fun k a -> use_ids.(at + k) <- intern a) args;
        Option.iter (fun d -> defs.(i) <- intern d) d
      | Instr.Nop -> ()
    done;
    let term_ids =
      match b.Block.term with
      | Block.Branch (c, _, _) | Block.Return (Some c) -> [| intern c |]
      | Block.Jump _ | Block.Return None -> [||]
    in
    let succs =
      Block.successors b.Block.term
      |> List.filter_map (Label.Tbl.find_opt positions)
      |> Array.of_list
    in
    { label = b.Block.label; body; defs; use_at; use_ids; term_ids; succs }
  in
  let blocks = Array.map encode source in
  let n = !count in
  let first_seen = Array.of_list (List.rev !seen) in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Var.compare first_seen.(a) first_seen.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) order;
  let vars = Array.map (fun i -> first_seen.(i)) order in
  Var.Tbl.filter_map_inplace (fun _ i -> Some rank.(i)) ids;
  let remap a = Array.iteri (fun k i -> if i >= 0 then a.(k) <- rank.(i)) a in
  Array.iter
    (fun b ->
      remap b.defs;
      remap b.use_ids;
      remap b.term_ids)
    blocks;
  (* Depth-first from the entry, successors in terminator order — the
     walk of Func.postorder over positions. *)
  let visited = Array.make (Array.length blocks) false in
  let order = ref [] in
  let rec visit p =
    if not visited.(p) then begin
      visited.(p) <- true;
      Array.iter visit blocks.(p).succs;
      order := p :: !order
    end
  in
  visit 0;
  let postorder = Array.of_list (List.rev !order) in
  { func; vars; ids; blocks; positions; postorder }

let size t = Array.length t.vars
let id t v = Var.Tbl.find t.ids v
let position t l = Label.Tbl.find t.positions l
