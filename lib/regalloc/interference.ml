open Tdfa_ir
open Tdfa_dataflow

type t = {
  nodes : Var.t array;  (* sorted; a node's id is its index *)
  ids : int Var.Tbl.t;
  adj : int array array;  (* neighbour ids, ascending *)
}

let build (func : Func.t) liveness =
  (* Every node is a variable of the function; number them all in sorted
     order, collect the edges in an n x n bit matrix (rows byte-aligned),
     then keep the variables that are defined or touch an edge. *)
  let universe = Array.of_list (Var.Set.elements (Func.all_vars func)) in
  let n = Array.length universe in
  let uid = Var.Tbl.create (2 * n) in
  Array.iteri (fun i v -> Var.Tbl.replace uid v i) universe;
  let stride = (n + 7) / 8 in
  let matrix = Bytes.make (n * stride) '\000' in
  let is_node = Array.make n false in
  let set a b =
    let byte = (a * stride) + (b lsr 3) in
    Bytes.unsafe_set matrix byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get matrix byte) lor (1 lsl (b land 7))))
  in
  let add_edge a b =
    if a <> b then begin
      set a b;
      set b a;
      is_node.(a) <- true;
      is_node.(b) <- true
    end
  in
  List.iter (fun p -> is_node.(Var.Tbl.find uid p) <- true) func.Func.params;
  (* Definition points: the defined variable interferes with everything
     live afterwards, except the source of a move (coalescable pair). *)
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      Array.iteri
        (fun i instr ->
          match Instr.def instr with
          | None -> ()
          | Some d ->
            let d = Var.Tbl.find uid d in
            is_node.(d) <- true;
            let exempt =
              match instr with
              | Instr.Unop (Instr.Mov, _, s) -> Var.Tbl.find uid s
              | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
              | Instr.Store _ | Instr.Call _ | Instr.Nop ->
                -1
            in
            Var.Set.iter
              (fun v ->
                let v = Var.Tbl.find uid v in
                if v <> exempt then add_edge d v)
              (Liveness.live_after_instr liveness l i))
        b.Block.body)
    func.Func.blocks;
  (* Parameters are "defined" on entry: they interfere with each other and
     with everything live into the entry block. *)
  let entry_live = Liveness.live_in liveness (Func.entry_label func) in
  let params = List.map (Var.Tbl.find uid) func.Func.params in
  List.iteri
    (fun i p ->
      Var.Set.iter (fun v -> add_edge p (Var.Tbl.find uid v)) entry_live;
      List.iteri (fun j q -> if i < j then add_edge p q) params)
    params;
  let members =
    Array.of_list (List.filter (fun u -> is_node.(u)) (List.init n Fun.id))
  in
  let node_of = Array.make n (-1) in
  Array.iteri (fun id u -> node_of.(u) <- id) members;
  let nodes = Array.map (fun u -> universe.(u)) members in
  let ids = Var.Tbl.create (2 * Array.length nodes) in
  Array.iteri (fun id v -> Var.Tbl.replace ids v id) nodes;
  let adj =
    Array.map
      (fun u ->
        let row = ref [] in
        for byte = stride - 1 downto 0 do
          let bits = Char.code (Bytes.unsafe_get matrix ((u * stride) + byte)) in
          if bits <> 0 then
            for bit = 7 downto 0 do
              if bits land (1 lsl bit) <> 0 then
                row := node_of.((byte * 8) + bit) :: !row
            done
        done;
        Array.of_list !row)
      members
  in
  { nodes; ids; adj }

let size t = Array.length t.nodes
let var t i = t.nodes.(i)
let adjacent t i = t.adj.(i)
let vars t = Array.to_list t.nodes

let neighbors t v =
  match Var.Tbl.find_opt t.ids v with
  | Some i -> Var.Set.of_list (List.map (var t) (Array.to_list t.adj.(i)))
  | None -> Var.Set.empty

let degree t v =
  match Var.Tbl.find_opt t.ids v with
  | Some i -> Array.length t.adj.(i)
  | None -> 0

let interferes t a b =
  match (Var.Tbl.find_opt t.ids a, Var.Tbl.find_opt t.ids b) with
  | Some i, Some j ->
    let row = t.adj.(i) in
    let rec search lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      if row.(mid) = j then true
      else if row.(mid) < j then search (mid + 1) hi
      else search lo mid
    in
    search 0 (Array.length row)
  | _ -> false

let num_edges t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj / 2
