open Tdfa_ir
open Tdfa_dataflow

type t = {
  live : Liveness.t;  (* its numbering names the variables *)
  nodes : Var.t array;  (* ascending; a node's id is its index *)
  node_of : int array;  (* variable id -> node id, or -1 *)
  adj : int array array;  (* neighbour ids, ascending *)
}

let build (func : Func.t) live =
  (* Rows of an n x n bit matrix over the liveness numbering: a
     definition ORs the words live after it into its row, a parameter
     the entry's live-in and the other parameters; the diagonal is then
     cleared and one pass over the set bits mirrors every edge. Nodes are
     the variables that are defined, parameters, or touch an edge. *)
  let num = Liveness.numbering live in
  let n = Numbering.size num in
  let words = Bits.words n in
  let matrix = Array.init n (fun _ -> Bits.create n) in
  let is_node = Array.make n false in
  (* [row u |= s], leaving out [except] (-1 for none). *)
  let or_row u s ~except =
    let row = matrix.(u) in
    let ew = if except < 0 then -1 else except / Bits.width in
    for w = 0 to words - 1 do
      let x =
        if w = ew then s.(w) land lnot (1 lsl (except mod Bits.width))
        else s.(w)
      in
      row.(w) <- row.(w) lor x
    done
  in
  (* Definition points: the defined variable interferes with everything
     live afterwards, except the source of a move (coalescable pair). *)
  List.iter
    (fun (b : Block.t) ->
      Liveness.walk live b.Block.label (fun i d after ->
          if d >= 0 then begin
            is_node.(d) <- true;
            let except =
              match b.Block.body.(i) with
              | Instr.Unop (Instr.Mov, _, s) -> Numbering.id num s
              | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
              | Instr.Store _ | Instr.Call _ | Instr.Nop ->
                -1
            in
            or_row d after ~except
          end))
    func.Func.blocks;
  (* Parameters are "defined" on entry: they interfere with each other and
     with everything live into the entry block. *)
  (match func.Func.params with
   | [] -> ()
   | params ->
     let entry_live = Liveness.live_in_bits live (Func.entry_label func) in
     let ps = Bits.create n in
     List.iter (fun p -> Bits.add ps (Numbering.id num p)) params;
     List.iter
       (fun p ->
         let p = Numbering.id num p in
         is_node.(p) <- true;
         or_row p entry_live ~except:(-1);
         or_row p ps ~except:(-1))
       params);
  Array.iteri (fun u row -> Bits.remove row u) matrix;
  Array.iteri
    (fun u row ->
      Bits.iter
        (fun v ->
          is_node.(v) <- true;
          Bits.add matrix.(v) u)
        row)
    matrix;
  let members =
    Array.of_list (List.filter (fun u -> is_node.(u)) (List.init n Fun.id))
  in
  let node_of = Array.make n (-1) in
  Array.iteri (fun id u -> node_of.(u) <- id) members;
  let nodes = Array.map (fun u -> num.Numbering.vars.(u)) members in
  let adj =
    Array.map
      (fun u ->
        let row = matrix.(u) in
        let a = Array.make (Bits.cardinal row) 0 and k = ref 0 in
        Bits.iter
          (fun v ->
            a.(!k) <- node_of.(v);
            incr k)
          row;
        a)
      members
  in
  { live; nodes; node_of; adj }

let size t = Array.length t.nodes
let var t i = t.nodes.(i)
let adjacent t i = t.adj.(i)
let vars t = Array.to_list t.nodes

let node t v =
  match Numbering.id (Liveness.numbering t.live) v with
  | u -> t.node_of.(u)
  | exception Not_found -> -1

let neighbors t v =
  match node t v with
  | -1 -> Var.Set.empty
  | i -> Var.Set.of_list (List.map (var t) (Array.to_list t.adj.(i)))

let degree t v =
  match node t v with -1 -> 0 | i -> Array.length t.adj.(i)

let interferes t a b =
  match (node t a, node t b) with
  | -1, _ | _, -1 -> false
  | i, j ->
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

let num_edges t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj / 2
