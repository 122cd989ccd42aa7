open Tdfa_ir
open Tdfa_floorplan

type outcome = { assignment : Assignment.t; spilled : Var.Set.t }

let run graph layout ~policy ~weights =
  let k = Layout.num_cells layout in
  let n = Interference.size graph in
  let weight = Array.init n (fun i -> weights (Interference.var graph i)) in
  (* Degrees over the not-yet-removed nodes, decremented on removal. *)
  let degree =
    Array.init n (fun i -> Array.length (Interference.adjacent graph i))
  in
  let removed = Array.make n false in
  (* The lowest score among the remaining nodes passing [eligible]; ids
     ascend in [Var.compare] order, so a later node within 1e-12 of the
     best so far never displaces it. -1 when none is eligible. *)
  let pick_min eligible score =
    let best = ref (-1) and best_score = ref 0.0 in
    for i = 0 to n - 1 do
      if (not removed.(i)) && eligible i then begin
        let s = score i in
        if !best < 0 || s < !best_score -. 1e-12 then begin
          best := i;
          best_score := s
        end
      end
    done;
    !best
  in
  (* Simplify: push low-degree nodes, preferring to remove *cold* ones
     first so hot ones are selected (coloured) first. When stuck, remove
     the worst spill candidate (lowest weight/degree) optimistically. *)
  let stack = ref [] in
  for _ = 1 to n do
    let chosen =
      match pick_min (fun i -> degree.(i) < k) (fun i -> weight.(i)) with
      | -1 ->
        pick_min
          (fun _ -> true)
          (fun i -> weight.(i) /. float_of_int (max 1 degree.(i)))
      | v -> v
    in
    removed.(chosen) <- true;
    Array.iter
      (fun u -> degree.(u) <- degree.(u) - 1)
      (Interference.adjacent graph chosen);
    stack := chosen :: !stack
  done;
  (* Select: pop hot-first; colours of coloured neighbours are forbidden. *)
  let chooser = Policy.make_chooser policy layout in
  let cell = Array.make n (-1) in
  let forbidden = Array.make k false in
  let mark i on =
    Array.iter
      (fun u -> if cell.(u) >= 0 then forbidden.(cell.(u)) <- on)
      (Interference.adjacent graph i)
  in
  let assignment = ref Assignment.empty in
  let spilled = ref Var.Set.empty in
  List.iter
    (fun i ->
      mark i true;
      let v = Interference.var graph i in
      (match Policy.choose chooser ~forbidden ~weight:weight.(i) with
       | Some c ->
         cell.(i) <- c;
         assignment := Assignment.add !assignment v c
       | None -> spilled := Var.Set.add v !spilled);
      mark i false)
    !stack;
  { assignment = !assignment; spilled = !spilled }
