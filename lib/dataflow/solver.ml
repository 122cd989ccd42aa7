open Tdfa_ir

module type DOMAIN = sig
  type fact

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
  val bottom : fact
end

module type FORWARD = sig
  include DOMAIN

  val entry : Func.t -> fact
  val instr : Instr.t -> fact -> fact
  val terminator : Block.terminator -> fact -> fact
end

module Forward (A : FORWARD) = struct
  type t = {
    inputs : A.fact Label.Tbl.t;
    outputs : A.fact Label.Tbl.t;
    iterations : int;
  }

  let block_transfer (b : Block.t) fact =
    let fact = Array.fold_left (fun acc i -> A.instr i acc) fact b.Block.body in
    A.terminator b.Block.term fact

  let solve func =
    let inputs = Label.Tbl.create 16 in
    let outputs = Label.Tbl.create 16 in
    let order = Func.reverse_postorder func in
    List.iter
      (fun l ->
        Label.Tbl.replace inputs l A.bottom;
        Label.Tbl.replace outputs l A.bottom)
      order;
    let entry = Func.entry_label func in
    let preds = Label.Tbl.create 16 in
    List.iter (fun l -> Label.Tbl.replace preds l (Func.predecessors func l)) order;
    let iterations = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      incr iterations;
      List.iter
        (fun l ->
          let input =
            if Label.equal l entry then A.entry func
            else
              List.fold_left
                (fun acc p ->
                  match Label.Tbl.find_opt outputs p with
                  | Some o -> A.join acc o
                  | None -> acc)
                A.bottom (Label.Tbl.find preds l)
          in
          Label.Tbl.replace inputs l input;
          let output = block_transfer (Func.find_block func l) input in
          let old = Label.Tbl.find outputs l in
          if not (A.equal old output) then begin
            Label.Tbl.replace outputs l output;
            changed := true
          end)
        order
    done;
    { inputs; outputs; iterations = !iterations }

  let input t l =
    match Label.Tbl.find_opt t.inputs l with Some f -> f | None -> A.bottom

  let output t l =
    match Label.Tbl.find_opt t.outputs l with Some f -> f | None -> A.bottom

  let iterations t = t.iterations
end
