open Tdfa_ir

type t = {
  num : Numbering.t;
  live_in : Bits.t array;  (* by block position *)
  live_out : Bits.t array;
  iterations : int;
}

(* The fact before instruction [i] from the fact after it, in place. *)
let step (b : Numbering.block) fact i =
  let d = b.Numbering.defs.(i) in
  if d >= 0 then Bits.remove fact d;
  for k = b.Numbering.use_at.(i) to b.Numbering.use_at.(i + 1) - 1 do
    Bits.add fact b.Numbering.use_ids.(k)
  done

let analyze func =
  let num = Numbering.make func in
  let n = Numbering.size num in
  let words = Bits.words n in
  let blocks = num.Numbering.blocks in
  let live_in = Array.map (fun _ -> Bits.create n) blocks in
  let live_out = Array.map (fun _ -> Bits.create n) blocks in
  let order = num.Numbering.postorder in
  (* live-in = gen ∪ (live-out \ kill): the block's upward-exposed uses
     and its definitions. *)
  let kill =
    Array.map
      (fun (b : Numbering.block) ->
        let k = Bits.create n in
        Array.iter (fun d -> if d >= 0 then Bits.add k d) b.Numbering.defs;
        k)
      blocks
  in
  let gen =
    Array.map
      (fun (b : Numbering.block) ->
        let g = Bits.create n in
        Array.iter (Bits.add g) b.Numbering.term_ids;
        for i = Array.length b.Numbering.defs - 1 downto 0 do
          step b g i
        done;
        g)
      blocks
  in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr iterations;
    Array.iter
      (fun p ->
        let out = live_out.(p) in
        Bits.clear out;
        Array.iter (fun s -> Bits.union_into out live_in.(s)) blocks.(p).Numbering.succs;
        let inp = live_in.(p) and g = gen.(p) and k = kill.(p) in
        for w = 0 to words - 1 do
          let x = g.(w) lor (out.(w) land lnot k.(w)) in
          if x <> inp.(w) then begin
            inp.(w) <- x;
            changed := true
          end
        done)
      order
  done;
  { num; live_in; live_out; iterations = !iterations }

let numbering t = t.num

let to_set t s =
  let acc = ref [] in
  Bits.iter (fun i -> acc := t.num.Numbering.vars.(i) :: !acc) s;
  Var.Set.of_list !acc

let boundary facts t l =
  match Label.Tbl.find_opt t.num.Numbering.positions l with
  | Some p -> to_set t facts.(p)
  | None -> Var.Set.empty

let live_in t l = boundary t.live_in t l
let live_out t l = boundary t.live_out t l
let live_in_bits t l = t.live_in.(Numbering.position t.num l)

(* The fact after the terminator's uses are added: the one after the
   block's last instruction. *)
let after_last t p =
  let fact = Array.copy t.live_out.(p) in
  Array.iter (Bits.add fact) t.num.Numbering.blocks.(p).Numbering.term_ids;
  fact

let walk t l f =
  let p = Numbering.position t.num l in
  let b = t.num.Numbering.blocks.(p) in
  let fact = after_last t p in
  for i = Array.length b.Numbering.defs - 1 downto 0 do
    f i b.Numbering.defs.(i) fact;
    step b fact i
  done

let replay t l i ~before =
  let p = Numbering.position t.num l in
  let b = t.num.Numbering.blocks.(p) in
  if i < 0 || i >= Array.length b.Numbering.defs then
    invalid_arg "Liveness: instruction index out of bounds";
  let fact = after_last t p in
  for j = Array.length b.Numbering.defs - 1 downto i + 1 do
    step b fact j
  done;
  if before then step b fact i;
  to_set t fact

let live_before_instr t l i = replay t l i ~before:true
let live_after_instr t l i = replay t l i ~before:false

let max_pressure t =
  let best = ref 0 in
  let consider s = best := max !best (Bits.cardinal s) in
  Array.iteri
    (fun p (b : Numbering.block) ->
      consider t.live_in.(p);
      consider t.live_out.(p);
      walk t b.Numbering.label (fun _ _ after -> consider after))
    t.num.Numbering.blocks;
  !best

let iterations t = t.iterations
