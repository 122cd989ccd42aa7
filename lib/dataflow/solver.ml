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

module type BACKWARD = sig
  include DOMAIN

  val exit : Func.t -> fact
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

module Backward (A : BACKWARD) = struct
  type t = {
    inputs : A.fact Label.Tbl.t;  (* fact before the first instruction *)
    outputs : A.fact Label.Tbl.t; (* fact after the terminator *)
    points : A.fact array Label.Tbl.t;
        (* per block, [.(i)] holds before instruction [i] and the last
           entry before the terminator *)
    iterations : int;
  }

  (* Walks the block backwards from [fact], the fact after the
     terminator, recording every intermediate fact in [points]; returns
     the fact before the first instruction. *)
  let block_transfer (b : Block.t) points fact =
    let n = Array.length b.Block.body in
    points.(n) <- A.terminator b.Block.term fact;
    for i = n - 1 downto 0 do
      points.(i) <- A.instr b.Block.body.(i) points.(i + 1)
    done;
    points.(0)

  let solve func =
    let inputs = Label.Tbl.create 16 in
    let outputs = Label.Tbl.create 16 in
    let points = Label.Tbl.create 16 in
    let blocks = Label.Tbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        Label.Tbl.replace blocks b.Block.label b;
        Label.Tbl.replace points b.Block.label
          (Array.make (Array.length b.Block.body + 1) A.bottom))
      func.Func.blocks;
    let order = Func.postorder func in
    List.iter
      (fun l ->
        Label.Tbl.replace inputs l A.bottom;
        Label.Tbl.replace outputs l A.bottom)
      order;
    let iterations = ref 0 in
    let changed = ref true in
    (* Every pass rewrites each reachable block's points, so after the
       last pass — which changed nothing — they hold the fixpoint. *)
    while !changed do
      changed := false;
      incr iterations;
      List.iter
        (fun l ->
          let block = Label.Tbl.find blocks l in
          let succs = Block.successors block.Block.term in
          let output =
            if succs = [] then A.exit func
            else
              List.fold_left
                (fun acc s ->
                  match Label.Tbl.find_opt inputs s with
                  | Some f -> A.join acc f
                  | None -> acc)
                A.bottom succs
          in
          Label.Tbl.replace outputs l output;
          let input = block_transfer block (Label.Tbl.find points l) output in
          let old = Label.Tbl.find inputs l in
          if not (A.equal old input) then begin
            Label.Tbl.replace inputs l input;
            changed := true
          end)
        order
    done;
    (* Unreachable blocks keep [bottom] at their boundaries; their
       points are walked from it once. *)
    List.iter
      (fun (b : Block.t) ->
        let l = b.Block.label in
        if not (Label.Tbl.mem outputs l) then
          ignore (block_transfer b (Label.Tbl.find points l) A.bottom))
      func.Func.blocks;
    { inputs; outputs; points; iterations = !iterations }

  let input t l =
    match Label.Tbl.find_opt t.inputs l with Some f -> f | None -> A.bottom

  let output t l =
    match Label.Tbl.find_opt t.outputs l with Some f -> f | None -> A.bottom

  let before_instr t l i = (Label.Tbl.find t.points l).(i)
  let after_instr t l i = (Label.Tbl.find t.points l).(i + 1)
  let iterations t = t.iterations
end
