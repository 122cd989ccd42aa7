(* Reference placer: [Tdfa_alloc.Place] as it was before its scorer kept
   per-core state between scores. Every score re-derives every core —
   per-core power, the per-cell stack, the transient rise and the
   stacking excess — from the whole assignment, in ascending task
   order. Policies, tie-breaking, the annealing schedule and the random
   draws are the same, so on every input [Place.run] must return this
   placer's result bit for bit (test_alloc.ml). No tracing and no
   cancellation: neither changes a result. *)

open Tdfa_floorplan
open Tdfa_alloc
open Place

let canonical tasks = Array.of_list (List.sort Task.compare tasks)

type scorer = {
  chip : Chip.t;
  gradient_weight : float;
  tasks : Task.t array;
  power_w : float array;
  rise_k : float array;
  nbrs : int array array;
  ncells : int;
  g_cell : float;
  core_power : float array;
  occupied : bool array;
  stack : float array;
  transient : float array;
  local : float array;
  mutable temps : float array;
}

let scorer ~gradient_weight chip tasks =
  let n = Chip.num_cores chip in
  let ncells = Layout.num_cells (Chip.core chip) in
  {
    chip;
    gradient_weight;
    tasks;
    power_w = Array.map Task.sustained_w tasks;
    rise_k = Array.map Task.transient_rise_k tasks;
    nbrs = Array.init n (fun c -> Array.of_list (Chip.neighbors chip c));
    ncells;
    g_cell = Chip.cell_vertical_w_per_k chip;
    core_power = Array.make n 0.0;
    occupied = Array.make n false;
    stack = Array.make (n * ncells) 0.0;
    transient = Array.make n 0.0;
    local = Array.make n 0.0;
    temps = [||];
  }

type merit = { peak : float; gradient : float; score : float }

let score s assign =
  let n = Array.length s.local and ncells = s.ncells in
  Array.fill s.core_power 0 n 0.0;
  Array.fill s.occupied 0 n false;
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        let base = c * ncells and cw = s.tasks.(i).Task.cells_w in
        s.core_power.(c) <- s.core_power.(c) +. s.power_w.(i);
        if not s.occupied.(c) then begin
          s.occupied.(c) <- true;
          s.transient.(c) <- 0.0;
          Array.fill s.stack base ncells 0.0
        end;
        for p = 0 to ncells - 1 do
          s.stack.(base + p) <- s.stack.(base + p) +. cw.(p)
        done;
        if s.rise_k.(i) > s.transient.(c) then s.transient.(c) <- s.rise_k.(i)
      end)
    assign;
  let temps = Chip.solve s.chip ~power:s.core_power in
  s.temps <- temps;
  let peak = ref neg_infinity and gradient = ref 0.0 in
  for c = 0 to n - 1 do
    let local =
      if not s.occupied.(c) then temps.(c)
      else begin
        let base = c * ncells in
        let hottest = ref 0.0 and total = ref 0.0 in
        for p = 0 to ncells - 1 do
          let x = s.stack.(base + p) in
          if x > !hottest then hottest := x;
          total := !total +. x
        done;
        let excess = (!hottest -. (!total /. float_of_int ncells)) /. s.g_cell in
        temps.(c) +. excess +. s.transient.(c)
      end
    in
    s.local.(c) <- local;
    peak := Float.max !peak local;
    let nb = s.nbrs.(c) in
    for k = 0 to Array.length nb - 1 do
      if nb.(k) > c then begin
        let d = Float.abs (temps.(c) -. temps.(nb.(k))) in
        if d > !gradient then gradient := d
      end
    done
  done;
  {
    peak = !peak;
    gradient = !gradient;
    score = !peak +. (s.gradient_weight *. !gradient);
  }

let round_robin_assign n_cores n_tasks =
  Array.init n_tasks (fun i -> i mod n_cores)

let placement s ~policy assign =
  let n = Array.length s.local and nt = Array.length s.tasks in
  let blind = score s (round_robin_assign n nt) in
  let m = score s assign in
  {
    policy;
    assignment =
      Array.to_list
        (Array.mapi (fun i c -> (s.tasks.(i).Task.name, c)) assign);
    core_temps_k = s.temps;
    local_peak_k = Array.copy s.local;
    peak_k = m.peak;
    gradient_k = m.gradient;
    score = m.score;
    round_robin_peak_k = blind.peak;
  }

let argmin n cost =
  let best = ref 0 and best_cost = ref infinity in
  for c = 0 to n - 1 do
    let x = cost c in
    if x < !best_cost then begin
      best_cost := x;
      best := c
    end
  done;
  !best

let hottest_first s pick =
  let order = Array.init (Array.length s.tasks) Fun.id in
  Array.sort
    (fun i j ->
      let c = Float.compare s.power_w.(j) s.power_w.(i) in
      if c <> 0 then c else Stdlib.compare i j)
    order;
  let assign = Array.make (Array.length s.tasks) (-1) in
  Array.iter (fun i -> assign.(i) <- pick assign i) order;
  assign

let run_greedy s =
  hottest_first s (fun assign i ->
      argmin (Array.length s.local) (fun c ->
          assign.(i) <- c;
          (score s assign).score))

let run_coolest s =
  hottest_first s (fun assign _ ->
      ignore (score s assign : merit);
      argmin (Array.length s.local) (fun c ->
          let nbrs = s.nbrs.(c) in
          let nsum = Array.fold_left (fun acc j -> acc +. s.temps.(j)) 0.0 nbrs in
          s.local.(c) +. (0.5 *. (nsum /. float_of_int (Array.length nbrs)))))

let run_annealed s ~seed ~iters ~start ~blind =
  let n = Array.length s.local and nt = Array.length s.tasks in
  if iters <= 0 || nt = 0 || n <= 1 then start
  else begin
    let rng = Random.State.make [| seed |] in
    let assign = Array.copy start and best = Array.copy start in
    let cur = ref (score s assign).score in
    let best_score = ref !cur in
    let t0 = 2.0 and t_end = 0.01 in
    let alpha = exp (log (t_end /. t0) /. float_of_int iters) in
    let temp = ref t0 in
    for _ = 1 to iters do
      let i = Random.State.int rng nt in
      let undo =
        if Random.State.float rng 1.0 < 0.7 then begin
          let old = assign.(i) in
          let c = Random.State.int rng (n - 1) in
          assign.(i) <- (if c >= old then c + 1 else c);
          fun () -> assign.(i) <- old
        end
        else begin
          let j = Random.State.int rng nt in
          let ci = assign.(i) and cj = assign.(j) in
          assign.(i) <- cj;
          assign.(j) <- ci;
          fun () ->
            assign.(i) <- ci;
            assign.(j) <- cj
        end
      in
      let cand = score s assign in
      let d = cand.score -. !cur in
      if d <= 0.0 || Random.State.float rng 1.0 < exp (-.d /. !temp) then begin
        cur := cand.score;
        if cand.peak <= blind.peak && cand.score < !best_score then begin
          best_score := cand.score;
          Array.blit assign 0 best 0 nt
        end
      end
      else undo ();
      temp := !temp *. alpha
    done;
    best
  end

let run ?(gradient_weight = default_gradient_weight) chip policy tasks =
  let tasks = canonical tasks in
  let n = Chip.num_cores chip and nt = Array.length tasks in
  let s = scorer ~gradient_weight chip tasks in
  let rr = round_robin_assign n nt in
  let blind = score s rr in
  let guard candidate =
    let m = score s candidate in
    if m.peak <= blind.peak && m.score <= blind.score then candidate else rr
  in
  placement s ~policy
    (match policy with
     | Round_robin -> rr
     | Greedy -> guard (run_greedy s)
     | Coolest_neighbor -> guard (run_coolest s)
     | Annealed { seed; iters } ->
       run_annealed s ~seed ~iters ~start:(guard (run_greedy s)) ~blind)
