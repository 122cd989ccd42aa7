(* Reference register-allocation core: the straightforward versions of
   liveness, the interference graph and Chaitin–Briggs colouring that
   the dense-id allocator replaced. Liveness is a [Var.Set] fixpoint
   over the blocks, every per-instruction fact is replayed from the
   block's live-out, the graph is a set per variable, and simplify
   recomputes degrees and weights at every step — quadratic, but easy to
   read. Kept as the differential oracle for Liveness, Interference,
   Coloring and Alloc (test_regalloc.ml). *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc

(* --- Liveness ------------------------------------------------------------- *)

type live = {
  ins : Var.Set.t Label.Tbl.t;  (* reachable blocks only *)
  outs : Var.Set.t Label.Tbl.t;
  iterations : int;
}

let transfer i fact =
  let without_def =
    match Instr.def i with Some d -> Var.Set.remove d fact | None -> fact
  in
  List.fold_left (fun acc v -> Var.Set.add v acc) without_def (Instr.uses i)

let before_term (b : Block.t) out =
  List.fold_left
    (fun acc v -> Var.Set.add v acc)
    out (Block.term_uses b.Block.term)

(* Round-robin in postorder until no block's live-in changes; the exit
   fact and the join's identity are the empty set. *)
let liveness (func : Func.t) =
  let ins = Label.Tbl.create 16 and outs = Label.Tbl.create 16 in
  let order = Func.postorder func in
  List.iter
    (fun l ->
      Label.Tbl.replace ins l Var.Set.empty;
      Label.Tbl.replace outs l Var.Set.empty)
    order;
  let iterations = ref 0 and changed = ref true in
  while !changed do
    changed := false;
    incr iterations;
    List.iter
      (fun l ->
        let b = Func.find_block func l in
        let out =
          List.fold_left
            (fun acc s ->
              match Label.Tbl.find_opt ins s with
              | Some f -> Var.Set.union acc f
              | None -> acc)
            Var.Set.empty
            (Block.successors b.Block.term)
        in
        Label.Tbl.replace outs l out;
        let input =
          Array.fold_right transfer b.Block.body (before_term b out)
        in
        if not (Var.Set.equal input (Label.Tbl.find ins l)) then begin
          Label.Tbl.replace ins l input;
          changed := true
        end)
      order
  done;
  { ins; outs; iterations = !iterations }

let live_in r l = Option.value ~default:Var.Set.empty (Label.Tbl.find_opt r.ins l)
let live_out r l = Option.value ~default:Var.Set.empty (Label.Tbl.find_opt r.outs l)

let live_after r (func : Func.t) l i =
  let b = Func.find_block func l in
  let fact = ref (before_term b (live_out r l)) in
  for j = Array.length b.Block.body - 1 downto i + 1 do
    fact := transfer b.Block.body.(j) !fact
  done;
  !fact

let live_before r func l i =
  transfer (Func.find_block func l).Block.body.(i) (live_after r func l i)

let max_pressure r (func : Func.t) =
  let best = ref 0 in
  let consider s = best := max !best (Var.Set.cardinal s) in
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      consider (live_in r l);
      consider (live_out r l);
      Array.iteri (fun i _ -> consider (live_after r func l i)) b.Block.body)
    func.Func.blocks;
  !best

(* --- Interference graph --------------------------------------------------- *)

type graph = Var.Set.t Var.Tbl.t

let add_node (g : graph) v =
  if not (Var.Tbl.mem g v) then Var.Tbl.replace g v Var.Set.empty

let add_edge g a b =
  if not (Var.equal a b) then begin
    add_node g a;
    add_node g b;
    Var.Tbl.replace g a (Var.Set.add b (Var.Tbl.find g a));
    Var.Tbl.replace g b (Var.Set.add a (Var.Tbl.find g b))
  end

let interference (func : Func.t) live : graph =
  let g = Var.Tbl.create 64 in
  Var.Set.iter (fun v -> add_node g v) (Func.defined_vars func);
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      Array.iteri
        (fun i instr ->
          match Instr.def instr with
          | None -> ()
          | Some d ->
            let exempt =
              match instr with
              | Instr.Unop (Instr.Mov, _, s) -> Some s
              | _ -> None
            in
            Var.Set.iter
              (fun v ->
                let skip =
                  match exempt with Some s -> Var.equal v s | None -> false
                in
                if not skip then add_edge g d v)
              (live_after live func l i))
        b.Block.body)
    func.Func.blocks;
  let entry_live = live_in live (Func.entry_label func) in
  List.iteri
    (fun i p ->
      Var.Set.iter (fun v -> add_edge g p v) entry_live;
      List.iteri (fun j q -> if i < j then add_edge g p q) func.Func.params)
    func.Func.params;
  g

let vars (g : graph) =
  List.sort Var.compare (Var.Tbl.fold (fun v _ acc -> v :: acc) g [])

let neighbors (g : graph) v =
  match Var.Tbl.find_opt g v with Some s -> s | None -> Var.Set.empty

(* --- Colouring ------------------------------------------------------------- *)

let coloring graph layout ~policy ~weights =
  let k = Layout.num_cells layout in
  let all_vars = vars graph in
  let removed = Var.Tbl.create 64 in
  let still_in v = not (Var.Tbl.mem removed v) in
  let current_degree v =
    Var.Set.cardinal (Var.Set.filter still_in (neighbors graph v))
  in
  let remaining () = List.filter still_in all_vars in
  let stack = ref [] in
  let rec simplify () =
    match remaining () with
    | [] -> ()
    | vars ->
      let low = List.filter (fun v -> current_degree v < k) vars in
      let pick_min score vs =
        List.fold_left
          (fun best v ->
            match best with
            | None -> Some v
            | Some b ->
              let sv = score v and sb = score b in
              if sv < sb -. 1e-12 then Some v
              else if sb < sv -. 1e-12 then best
              else if Var.compare v b < 0 then Some v
              else best)
          None vs
      in
      let chosen =
        match low with
        | _ :: _ -> pick_min (fun v -> weights v) low
        | [] ->
          pick_min
            (fun v -> weights v /. float_of_int (max 1 (current_degree v)))
            vars
      in
      (match chosen with
       | Some v ->
         Var.Tbl.replace removed v ();
         stack := v :: !stack;
         simplify ()
       | None -> ())
  in
  simplify ();
  let chooser = Policy.make_chooser policy layout in
  let assignment = ref Assignment.empty in
  let spilled = ref Var.Set.empty in
  List.iter
    (fun v ->
      let forbidden = Array.make k false in
      Var.Set.iter
        (fun n ->
          match Assignment.cell_of_var !assignment n with
          | Some c -> forbidden.(c) <- true
          | None -> ())
        (neighbors graph v);
      match Policy.choose chooser ~forbidden ~weight:(weights v) with
      | Some cell -> assignment := Assignment.add !assignment v cell
      | None -> spilled := Var.Set.add v !spilled)
    !stack;
  { Coloring.assignment = !assignment; spilled = !spilled }

(* --- Allocation with iterated spilling ------------------------------------ *)

let allocate ?(max_rounds = 16) func layout ~policy =
  let rec attempt func all_spilled round =
    if round > max_rounds then failwith "Regalloc_reference.allocate";
    let weights = Alloc.default_weights func in
    let live = liveness func in
    let outcome =
      coloring (interference func live) layout ~policy ~weights
    in
    if Var.Set.is_empty outcome.Coloring.spilled then
      {
        Alloc.func;
        assignment = outcome.Coloring.assignment;
        spilled = all_spilled;
        rounds = round;
        max_pressure = max_pressure live func;
      }
    else
      attempt
        (Spill.rewrite
           ~slot_base:(Var.Set.cardinal all_spilled)
           func outcome.Coloring.spilled)
        (Var.Set.union all_spilled outcome.Coloring.spilled)
        (round + 1)
  in
  attempt func Var.Set.empty 1
