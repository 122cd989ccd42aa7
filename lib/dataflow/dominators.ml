open Tdfa_ir

type t = { func : Func.t; doms : Label.Set.t Label.Tbl.t }

let analyze (func : Func.t) =
  let order = Func.reverse_postorder func in
  let all = List.fold_left (fun s l -> Label.Set.add l s) Label.Set.empty order in
  let entry = Func.entry_label func in
  let preds = Func.predecessor_table func in
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
            List.filter
              (fun p -> Label.Tbl.mem doms p)
              (Option.value ~default:[] (Label.Tbl.find_opt preds l))
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
