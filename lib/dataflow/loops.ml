open Tdfa_ir

type loop = {
  header : Label.t;
  body : Label.Set.t;
  back_edges : Label.t list;
}

type t = { func : Func.t; loops : loop list; trips : int option Label.Tbl.t }

let default_trip = 16

(* Body of the natural loop of back edge latch->header: header plus every
   block reaching the latch without passing through the header. *)
let natural_body preds header latches =
  let body = ref (Label.Set.singleton header) in
  let rec visit l =
    if not (Label.Set.mem l !body) then begin
      body := Label.Set.add l !body;
      List.iter visit (Option.value ~default:[] (Label.Tbl.find_opt preds l))
    end
  in
  List.iter visit latches;
  !body

(* Every defining instruction of each variable, with its block: the
   constant queries below read this table instead of rescanning the
   function. *)
let def_sites (func : Func.t) =
  let defs = Var.Tbl.create 64 in
  Func.iter_instrs
    (fun label _ i ->
      match Instr.def i with
      | Some d ->
        let cur = Option.value ~default:[] (Var.Tbl.find_opt defs d) in
        Var.Tbl.replace defs d ((label, i) :: cur)
      | None -> ())
    func;
  fun v -> Option.value ~default:[] (Var.Tbl.find_opt defs v)

(* Best-effort constant value of a variable: its unique definition is a
   Const, or a move chain (of bounded depth) ending at one — splitting
   passes introduce such copies of loop constants. *)
let const_value defs v =
  let rec resolve v depth =
    if depth = 0 then None
    else
      match defs v with
      | [ (_, Instr.Const (_, k)) ] -> Some k
      | [ (_, Instr.Unop (Instr.Mov, _, s)) ] -> resolve s (depth - 1)
      | _ -> None
  in
  resolve v 4

(* Constant initial value of the induction variable: among its defs, the
   unique Const one. *)
let const_init defs v =
  match
    List.filter_map
      (function _, Instr.Const (_, k) -> Some k | _ -> None)
      (defs v)
  with
  | [ k ] -> Some k
  | _ -> None

(* Constant step: a unique [i <- i + s] (or [i <- i - s]) inside the loop
   body with [s] constant. *)
let const_step defs body v =
  let step (label, i) =
    if not (Label.Set.mem label body) then None
    else
      match i with
      | Instr.Binop (Instr.Add, _, s1, s2) when Var.equal s1 v ->
        const_value defs s2
      | Instr.Binop (Instr.Sub, _, s1, s2) when Var.equal s1 v ->
        Option.map (fun k -> -k) (const_value defs s2)
      | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
      | Instr.Store _ | Instr.Call _ | Instr.Nop ->
        None
  in
  match List.filter_map step (defs v) with [ k ] -> Some k | _ -> None

(* Recover the [while (i < n)] idiom from the header: the branch condition
   defined in the header by [slt i n] (or [sle]). *)
let estimate_trip func defs (l : loop) =
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
       match
         (const_init defs iv, const_value defs bound, const_step defs l.body iv)
       with
       | Some k0, Some kn, Some ks when ks > 0 && kn > k0 ->
         let span = kn - k0 + (match op with Instr.Sle -> 1 | _ -> 0) in
         Some (max 1 ((span + ks - 1) / ks))
       | _, _, _ -> None)
     | Some _ | None -> None)
  | Block.Jump _ | Block.Return _ -> None

let analyze (func : Func.t) =
  let dom = Dominators.analyze func in
  let preds = Func.predecessor_table func in
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
        { header; body = natural_body preds header latches; back_edges = latches }
        :: acc)
      latches_of []
  in
  (* Stable order: by header label, for reproducible reports. *)
  let loops =
    List.sort (fun a b -> Label.compare a.header b.header) loops
  in
  let trips = Label.Tbl.create 8 in
  let defs = def_sites func in
  List.iter
    (fun l -> Label.Tbl.replace trips l.header (estimate_trip func defs l))
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
