open Tdfa_ir
open Tdfa_dataflow

let remove_unreachable (func : Func.t) =
  let reach = Func.reachable func in
  let blocks =
    List.filter
      (fun (b : Block.t) -> Label.Set.mem b.Block.label reach)
      func.Func.blocks
  in
  Func.make ~name:func.Func.name ~params:func.Func.params blocks

let dead_code_elimination (func : Func.t) =
  let removed = ref 0 in
  let rec pass func =
    let live = Liveness.analyze func in
    let changed = ref false in
    let rewrite (b : Block.t) =
      (* The walk runs last instruction first, so [keep] ends in
         program order. *)
      let keep = ref [] in
      Liveness.walk live b.Block.label (fun i d after ->
          let instr = b.Block.body.(i) in
          if d >= 0 && Instr.is_pure instr && not (Bits.mem after d) then begin
            incr removed;
            changed := true
          end
          else keep := instr :: !keep);
      Block.with_body b !keep
    in
    let func = Func.map_blocks rewrite func in
    if !changed then pass func else func
  in
  let func = pass func in
  (func, !removed)

let copy_propagation (func : Func.t) =
  let rewritten = ref 0 in
  let rewrite (b : Block.t) =
    (* copies: d -> s, meaning reads of d may read s instead. *)
    let copies = Var.Tbl.create 8 in
    let invalidate v =
      Var.Tbl.remove copies v;
      Var.Tbl.iter
        (fun d s -> if Var.equal s v then Var.Tbl.remove copies d)
        (Var.Tbl.copy copies)
    in
    let subst v =
      match Var.Tbl.find_opt copies v with
      | Some s ->
        incr rewritten;
        s
      | None -> v
    in
    let body =
      Array.to_list b.Block.body
      |> List.map (fun instr ->
             let instr = Instr.map_uses subst instr in
             (match Instr.def instr with
              | Some d -> invalidate d
              | None -> ());
             (match instr with
              | Instr.Unop (Instr.Mov, d, s) when not (Var.equal d s) ->
                Var.Tbl.replace copies d s
              | Instr.Const _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
              | Instr.Store _ | Instr.Call _ | Instr.Nop ->
                ());
             instr)
    in
    let term =
      match b.Block.term with
      | Block.Jump l -> Block.Jump l
      | Block.Branch (c, t, e) -> Block.Branch (subst c, t, e)
      | Block.Return (Some v) -> Block.Return (Some (subst v))
      | Block.Return None -> Block.Return None
    in
    Block.make b.Block.label body term
  in
  let func = Func.map_blocks rewrite func in
  (func, !rewritten)

(* Value keys for pure computations; operands are compared by name, so a
   redefinition of any operand (or of the holder) must invalidate the
   table. *)
type value_key =
  | K_unop of Instr.unop * Var.t
  | K_binop of Instr.binop * Var.t * Var.t

let key_of_instr = function
  (* Constants are deliberately not numbered: an immediate is cheaper
     than a register-to-register move, and unifying same-valued constants
     obscures induction variables (trip-count recovery). *)
  | Instr.Const (_, _) -> None
  | Instr.Unop (op, _, s) ->
    (* Moves are handled by copy propagation, not value numbering. *)
    if op = Instr.Mov then None else Some (K_unop (op, s))
  | Instr.Binop (op, _, s1, s2) ->
    (* Normalise commutative operands for more hits. *)
    let commutative =
      match op with
      | Instr.Add | Instr.Mul | Instr.And | Instr.Or | Instr.Xor
      | Instr.Seq | Instr.Sne ->
        true
      | Instr.Sub | Instr.Div | Instr.Rem | Instr.Shl | Instr.Shr
      | Instr.Slt | Instr.Sle ->
        false
    in
    let s1, s2 =
      if commutative && Var.compare s2 s1 < 0 then (s2, s1) else (s1, s2)
    in
    Some (K_binop (op, s1, s2))
  | Instr.Load _ | Instr.Store _ | Instr.Call _ | Instr.Nop -> None

let key_mentions v = function
  | K_unop (_, s) -> Var.equal s v
  | K_binop (_, s1, s2) -> Var.equal s1 v || Var.equal s2 v

let local_value_numbering (func : Func.t) =
  let replaced = ref 0 in
  let rewrite (b : Block.t) =
    let table : (value_key * Var.t) list ref = ref [] in
    let invalidate v =
      table :=
        List.filter
          (fun (key, holder) ->
            not (Var.equal holder v || key_mentions v key))
          !table
    in
    let body =
      Array.to_list b.Block.body
      |> List.map (fun instr ->
             let instr' =
               match (Instr.def instr, key_of_instr instr) with
               | Some d, Some key -> (
                 match List.assoc_opt key !table with
                 | Some holder when not (Var.equal holder d) ->
                   incr replaced;
                   Instr.Unop (Instr.Mov, d, holder)
                 | Some _ | None -> instr)
               | (Some _ | None), (Some _ | None) -> instr
             in
             (match Instr.def instr' with
              | Some d ->
                invalidate d;
                (match key_of_instr instr' with
                 (* An accumulator update (d = d op s) computes a value
                    from the *old* d: the key would be stale the moment
                    it is registered. *)
                 | Some key when not (key_mentions d key) ->
                   table := (key, d) :: !table
                 | Some _ | None -> ())
              | None -> ());
             instr')
    in
    Block.with_body b body
  in
  let func = Func.map_blocks rewrite func in
  (func, !replaced)

let constant_folding (func : Func.t) =
  let cp = Const_prop.analyze func in
  let folded = ref 0 in
  let rewrite (b : Block.t) =
    (* Walk the block re-evaluating the environment to fold each
       instruction against the facts holding right before it. *)
    let env = ref Var.Map.empty in
    let lookup v =
      match Var.Map.find_opt v !env with
      | Some x -> x
      | None -> Const_prop.value_in cp b.Block.label v
    in
    let body =
      Array.to_list b.Block.body
      |> List.map (fun instr ->
             let folded_instr =
               match (Instr.def instr, Const_prop.eval_instr instr lookup) with
               | Some d, Some (Const_prop.Value.Const k) when Instr.is_pure instr
                 -> (
                 match instr with
                 | Instr.Const _ -> instr  (* already a constant *)
                 | Instr.Unop _ | Instr.Binop _ ->
                   incr folded;
                   Instr.Const (d, k)
                 | Instr.Load _ | Instr.Store _ | Instr.Call _ | Instr.Nop ->
                   instr)
               | (Some _ | None), (Some _ | None) -> instr
             in
             (match (Instr.def folded_instr,
                     Const_prop.eval_instr folded_instr lookup) with
              | Some d, Some value -> env := Var.Map.add d value !env
              | (Some _ | None), (Some _ | None) -> ());
             folded_instr)
    in
    let term =
      match b.Block.term with
      | Block.Branch (c, t, e) -> (
        match lookup c with
        | Const_prop.Value.Const k ->
          incr folded;
          Block.Jump (if k <> 0 then t else e)
        | Const_prop.Value.Unknown | Const_prop.Value.Varying -> b.Block.term)
      | Block.Jump _ | Block.Return _ -> b.Block.term
    in
    Block.make b.Block.label body term
  in
  let func = Func.map_blocks rewrite func in
  (remove_unreachable func, !folded)

let run_all func =
  let rec fix func n =
    if n = 0 then func
    else begin
      let func, folded = constant_folding func in
      let func, reduced = Strength.apply func in
      let func, numbered = local_value_numbering func in
      let func, copied = copy_propagation func in
      let func, removed = dead_code_elimination func in
      if folded + reduced + numbered + copied + removed = 0 then func
      else fix func (n - 1)
    end
  in
  fix func 8
