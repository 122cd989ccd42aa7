open Tdfa_floorplan
module Obs = Tdfa_obs.Obs

type policy =
  | Round_robin
  | Greedy
  | Coolest_neighbor
  | Annealed of { seed : int; iters : int }

let policy_name = function
  | Round_robin -> "round-robin"
  | Greedy -> "greedy"
  | Coolest_neighbor -> "coolest"
  | Annealed { seed; iters } ->
    Printf.sprintf "anneal(seed=%d,iters=%d)" seed iters

let policy_of_string ?(seed = 0) ?(iters = 2000) s =
  match s with
  | "round-robin" | "rr" -> Ok Round_robin
  | "greedy" -> Ok Greedy
  | "coolest" | "coolest-neighbor" -> Ok Coolest_neighbor
  | "anneal" | "annealed" | "sa" -> Ok (Annealed { seed; iters })
  | _ ->
    Error
      (Printf.sprintf
         "unknown placement policy %S (expected round-robin, greedy, coolest \
          or anneal)"
         s)

type placement = {
  policy : policy;
  assignment : (string * int) list;
  core_temps_k : float array;
  local_peak_k : float array;
  peak_k : float;
  gradient_k : float;
  score : float;
  round_robin_peak_k : float;
}

let default_gradient_weight = 0.1

(* Every allocator starts by sorting its input under [Task.compare]:
   from here on, placement is a function of the task multiset alone,
   which is the permutation-invariance property the QCheck battery
   asserts. *)
let canonical tasks = Array.of_list (List.sort Task.compare tasks)

let check_tasks chip tasks =
  let ncells = Layout.num_cells (Chip.core chip) in
  Array.iter
    (fun (t : Task.t) ->
      if Array.length t.Task.cells_w <> ncells then
        invalid_arg
          (Printf.sprintf
             "Place: task %s profiled over %d cells, chip cores have %d"
             t.Task.name
             (Array.length t.Task.cells_w)
             ncells))
    tasks

(* Everything a candidate's score needs that does not depend on the
   assignment, computed once per run, plus the per-core terms of the
   last score. A score re-derives only the cores whose task set changed
   since the last one, summing their tasks in ascending task order as a
   full pass would, so every term — and so every score — is a pure
   function of the assignment: equal candidates score bitwise equal. *)
type scorer = {
  chip : Chip.t;
  gradient_weight : float;
  tasks : Task.t array;
  power_w : float array;  (* per task: Task.sustained_w *)
  rise_k : float array;  (* per task: Task.transient_rise_k *)
  nbrs : int array array;  (* per core: neighbours, Layout.neighbors order *)
  ncells : int;
  g_cell : float;
  placed : int array;  (* per task: its core at the last score, -1 if none *)
  dirty : bool array;  (* per core: its task set changed since then *)
  core_power : float array;
  occupied : bool array;
  stack : float array;  (* per core: summed per-cell power, ncells wide *)
  transient : float array;  (* per core: largest transient rise *)
  excess : float array;  (* per core: within-core stacking excess, K *)
  local : float array;  (* the last score's local peaks *)
  mutable temps : float array;  (* the last score's chip solve *)
  mutable rederived : int;  (* cores re-derived over the run *)
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
    placed = Array.make (Array.length tasks) (-1);
    dirty = Array.make n false;
    core_power = Array.make n 0.0;
    occupied = Array.make n false;
    stack = Array.make (n * ncells) 0.0;
    transient = Array.make n 0.0;
    excess = Array.make n 0.0;
    local = Array.make n 0.0;
    temps = [||];
    rederived = 0;
  }

type merit = { peak : float; gradient : float; score : float }

(* Mark core [c] (if any) for re-derivation and clear its sums. *)
let mark s c =
  if c >= 0 && not s.dirty.(c) then begin
    s.dirty.(c) <- true;
    s.core_power.(c) <- 0.0;
    s.occupied.(c) <- false
  end

(* Bring the per-core terms up to [assign]: mark the cores a task left
   or joined, add their tasks back in ascending task order, and
   recompute their stacking excess — the hottest cell's summed power
   over the core average, through the per-cell vertical conductance.
   Every other core's terms are already those of [assign]. *)
let rederive s assign =
  let n = Array.length s.local and ncells = s.ncells in
  let nt = Array.length assign in
  for i = 0 to nt - 1 do
    let c = assign.(i) and p = s.placed.(i) in
    if c <> p then begin
      mark s p;
      mark s c;
      s.placed.(i) <- c
    end
  done;
  for i = 0 to nt - 1 do
    let c = assign.(i) in
    if c >= 0 && s.dirty.(c) then begin
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
    end
  done;
  for c = 0 to n - 1 do
    if s.dirty.(c) then begin
      s.dirty.(c) <- false;
      s.rederived <- s.rederived + 1;
      if s.occupied.(c) then begin
        let base = c * ncells in
        let hottest = ref 0.0 and total = ref 0.0 in
        for p = 0 to ncells - 1 do
          let x = s.stack.(base + p) in
          if x > !hottest then hottest := x;
          total := !total +. x
        done;
        s.excess.(c) <-
          (!hottest -. (!total /. float_of_int ncells)) /. s.g_cell
      end
    end
  done

(* Score an assignment; [assign.(i) = -1] means task [i] is not placed
   yet (greedy's partial states). The local per-core peak is the steady
   core temperature from the chip solve, plus the within-core stacking
   excess, plus the largest transient peak-over-mean rise among the
   core's tasks, which is short-lived and never diffuses into the
   neighbours. Leaves the chip solve in [s.temps] and the local peaks in
   [s.local]. *)
let score s assign =
  let n = Array.length s.local in
  rederive s assign;
  let temps = Chip.solve s.chip ~power:s.core_power in
  s.temps <- temps;
  let peak = ref neg_infinity and gradient = ref 0.0 in
  for c = 0 to n - 1 do
    let local =
      if not s.occupied.(c) then temps.(c)
      else temps.(c) +. s.excess.(c) +. s.transient.(c)
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

(* The full record, built once for the assignment a policy returns. *)
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

let evaluate ?(gradient_weight = default_gradient_weight) chip tasks assign =
  if Array.length assign <> Array.length tasks then
    invalid_arg "Place.evaluate: assignment length does not match tasks";
  check_tasks chip tasks;
  let n = Chip.num_cores chip in
  Array.iter
    (fun c ->
      if c < 0 || c >= n then
        invalid_arg "Place.evaluate: core index out of range")
    assign;
  placement (scorer ~gradient_weight chip tasks) ~policy:Round_robin assign

(* The first core minimizing [cost], strict improvement from infinity. *)
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

(* Hottest-task-first placement: tasks by descending sustained power
   (canonical index breaking ties, so the order is still
   multiset-determined), each onto the core [pick] chooses for the
   partial assignment. *)
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

(* Greedy: the core that minimizes the resulting score. *)
let run_greedy s =
  hottest_first s (fun assign i ->
      argmin (Array.length s.local) (fun c ->
          assign.(i) <- c;
          (score s assign).score))

(* Coolest-neighbor: from the partial placement's temperatures, the core
   whose own worst temperature — steady plus stacking plus transient,
   since with many tasks the within-core terms dominate the peak and a
   policy blind to them cannot beat a balanced round-robin — plus half
   its neighbours' mean steady temperature is lowest. *)
let run_coolest s =
  hottest_first s (fun assign _ ->
      ignore (score s assign : merit);
      argmin (Array.length s.local) (fun c ->
          let nbrs = s.nbrs.(c) in
          let nsum = Array.fold_left (fun acc j -> acc +. s.temps.(j)) 0.0 nbrs in
          s.local.(c) +. (0.5 *. (nsum /. float_of_int (Array.length nbrs)))))

let run_annealed ~obs ~cancel s ~seed ~iters ~start ~blind =
  let n = Array.length s.local and nt = Array.length s.tasks in
  if iters <= 0 || nt = 0 || n <= 1 then start
  else begin
    let rng = Random.State.make [| seed |] in
    let assign = Array.copy start and best = Array.copy start in
    let cur = ref (score s assign).score in
    let best_score = ref !cur in
    (* Geometric cooling from 2 K down to 0.01 K over [iters] steps. *)
    let t0 = 2.0 and t_end = 0.01 in
    let alpha = exp (log (t_end /. t0) /. float_of_int iters) in
    let temp = ref t0 in
    let accepted = ref 0 and improving = ref 0 in
    for k = 1 to iters do
      (* A deadline is polled every 256 moves. *)
      if k land 255 = 0 && cancel () then
        raise (Tdfa_core.Analysis.Cancelled { iterations = k - 1 });
      let i = Random.State.int rng nt in
      let undo =
        if Random.State.float rng 1.0 < 0.7 then begin
          (* Move task [i] to a different core. *)
          let old = assign.(i) in
          let c = Random.State.int rng (n - 1) in
          assign.(i) <- (if c >= old then c + 1 else c);
          fun () -> assign.(i) <- old
        end
        else begin
          (* Swap the cores of tasks [i] and [j]. *)
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
        incr accepted;
        if d < 0.0 then incr improving;
        cur := cand.score;
        (* Only candidates that respect the round-robin peak bound may
           become the answer — the guard the battery relies on. *)
        if cand.peak <= blind.peak && cand.score < !best_score then begin
          best_score := cand.score;
          Array.blit assign 0 best 0 nt
        end
      end
      else undo ();
      temp := !temp *. alpha
    done;
    if Obs.tracing obs then
      Obs.instant obs "alloc.anneal"
        ~args:
          [
            ("accepted", Obs.Int !accepted);
            ("improving", Obs.Int !improving);
            ("final_temp_k", Obs.Float !temp);
            ("cores_rederived", Obs.Int s.rederived);
          ];
    best
  end

let run ?(obs = Obs.null) ?(cancel = fun () -> false)
    ?(gradient_weight = default_gradient_weight) chip policy tasks =
  let tasks = canonical tasks in
  check_tasks chip tasks;
  let n = Chip.num_cores chip and nt = Array.length tasks in
  let place () =
    let s = scorer ~gradient_weight chip tasks in
    let rr = round_robin_assign n nt in
    let blind = score s rr in
    (* The never-worse-than-blind guard: a thermal-aware candidate
       replaces the canonical round-robin placement only when it beats it
       on score without exceeding its peak — so "peak <= round-robin's
       peak" holds for greedy and coolest-neighbor by construction. *)
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
         run_annealed ~obs ~cancel s ~seed ~iters
           ~start:(guard (run_greedy s)) ~blind)
  in
  (* The span's arguments are built only for a tracing sink. *)
  if not (Obs.tracing obs) then place ()
  else
    Obs.span obs "alloc.place"
      ~args:
        [
          ("cores", Obs.Int n);
          ("tasks", Obs.Int nt);
          ("policy", Obs.Str (policy_name policy));
        ]
      place

let exhaustive ?(gradient_weight = default_gradient_weight)
    ?(limit = 1_000_000) chip tasks =
  let tasks = canonical tasks in
  check_tasks chip tasks;
  let n = Chip.num_cores chip in
  let nt = Array.length tasks in
  let count = ref 1 in
  for _ = 1 to nt do
    if !count > limit / n then count := limit + 1 else count := !count * n
  done;
  if !count > limit then
    invalid_arg
      (Printf.sprintf "Place.exhaustive: %d^%d placements exceed the limit" n
         nt);
  let s = scorer ~gradient_weight chip tasks in
  let assign = Array.make nt 0 in
  let best = Array.copy assign and best_score = ref (score s assign).score in
  (* Odometer enumeration in lexicographic order; strict improvement
     keeps the first — smallest — optimal assignment. *)
  let rec bump i =
    if i < 0 then false
    else if assign.(i) + 1 < n then begin
      assign.(i) <- assign.(i) + 1;
      true
    end
    else begin
      assign.(i) <- 0;
      bump (i - 1)
    end
  in
  while bump (nt - 1) do
    let m = score s assign in
    if m.score < !best_score then begin
      best_score := m.score;
      Array.blit assign 0 best 0 nt
    end
  done;
  placement s ~policy:Round_robin best
