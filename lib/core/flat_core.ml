open Tdfa_ir

(* The flat thermal core: the Fig. 2 per-instruction transfer function
   and block sweep of Analysis.fixpoint, recompiled onto preallocated
   flat float arrays with a struct-of-arrays layout.

   The boxed path (Transfer.apply driven by Analysis's boxed pass)
   allocates per instruction visit: two full state copies, a neighbour
   list per point in the diffusion fold, three closure traversals and
   the access-event list of the instruction. This kernel precompiles
   everything iteration-invariant once — access events become (point,
   increment) arrays, per-point cell counts a float array — and then
   runs each transfer as one fused step over two buffers: heating in
   place, leakage into a scratch copy, and diffusion with cooling as a
   single row-major grid stencil back (no neighbour table: neighbours
   sit at fixed offsets, and only rim points test which exist). The
   sweep keeps

     cur      the state being advanced through the current block
     scratch  the post-leakage state the stencil reads
     states   n_slots x n_points: last sweep's state after each instr
     exits    n_blocks x n_points: state after each terminator

   plus one incoming-state snapshot per block, so that a block whose
   joined input has not moved since it was last swept is skipped rather
   than recomputed (see [reusable]). [states] and [exits], laid out by
   [slots], are the analysis result itself.

   Every float operation is performed in the same order, on the same
   values, with the same NaN and signed-zero semantics as the boxed path
   (including Stdlib.Float.max's, replicated inline), so the two cores
   produce bit-identical Analysis.info — certified by the differential
   battery in test_core_flat.ml. *)

type join = Join_max | Join_average

type slots = {
  blocks : Label.t array;
  first : int array;
  block_row : int Label.Map.t;
}

let slots func =
  let blocks = Array.of_list (Func.reverse_postorder func) in
  let first = Array.make (Array.length blocks + 1) 0 in
  let block_row = ref Label.Map.empty in
  Array.iteri
    (fun b label ->
      block_row := Label.Map.add label b !block_row;
      first.(b + 1) <-
        first.(b) + Block.num_instrs (Func.find_block func label))
    blocks;
  { blocks; first; block_row = !block_row }

let iter_slots s f =
  Array.iteri
    (fun b label ->
      for index = 0 to s.first.(b + 1) - s.first.(b) - 1 do
        f label index (s.first.(b) + index)
      done)
    s.blocks

(* One program point with its precompiled heating events: the thermal
   points touched and the exact per-event temperature increment
   (power x dt / C_point, with power = E x weight x f_clk x duty,
   composed in the boxed expression order). *)
type slot = { sl_points : int array; sl_inc : float array }

(* Block row b: its position in [slots.blocks] and its row in [exits]. *)
type blockc = {
  b_entry : bool;
  b_preds : int array;
      (* predecessor rows, in Func.predecessors order; -1 (read as
         ambient, like the boxed join's fresh state) if unreachable *)
  b_slots : slot array;  (* one per body instruction *)
  b_term : slot;
}

type t = {
  grid : Flat_grid.t;
  join : join;
  delta_k : float;
  c_ambient : float;
  c_leak_w : float;
  c_leak_coeff : float;
  c_dt : float;
  c_cpoint : float;
  c_lambda : float;
  c_kappa : float;
  slots : slots;
  blocks : blockc array;  (* reverse postorder *)
  n_points : int;
  cur : float array;
  scratch : float array;
  ambient_row : float array;
  states : float array;
  seen : bool array;
  exits : float array;
  (* Sweep skipping: [incoming] holds, per block (row = position in
     [blocks]), the joined incoming state its stored states and exit row
     were last computed from; [valid] says whether that snapshot is
     current; [skipped] counts the instruction visits skipped so far. *)
  incoming : float array;
  valid : bool array;
  mutable skipped : int;
  (* Unboxed scratch cells for float accumulation: element 0 carries the
     running maximum of the loop at hand, element 1 a NaN flag (0/1).
     Keeping them in a float array rather than refs keeps the sweeps
     allocation-free under the non-flambda compiler. *)
  fbuf : float array;
}

let compile_slot (cfg : Transfer.config) (grid : Flat_grid.t) ~duty events =
  let p = cfg.Transfer.params in
  let clock = p.Tdfa_thermal.Params.clock_hz in
  let c_point = Transfer.point_capacitance cfg in
  let dt = cfg.Transfer.analysis_dt_s in
  let n = List.length events in
  let sl_points = Array.make n 0 and sl_inc = Array.make n 0.0 in
  List.iteri
    (fun k (e : Access.event) ->
      let energy =
        match e.Access.kind with
        | Access.Read -> p.Tdfa_thermal.Params.read_energy_j
        | Access.Write -> p.Tdfa_thermal.Params.write_energy_j
      in
      (* Boxed: power = energy *. weight *. clock_hz *. duty, applied as
         state(p) +. (power *. dt /. c_point). Folding the whole product
         into one precomputed increment is bit-safe because it is the
         same operations on the same values in the same order. *)
      let power = energy *. e.Access.weight *. clock *. duty in
      sl_points.(k) <- grid.Flat_grid.point_of_cell.(e.Access.cell);
      sl_inc.(k) <- power *. dt /. c_point)
    events;
  { sl_points; sl_inc }

(* One spare state buffer per domain: a caller that has read the last
   of an outcome hands its [states] back through [recycle], and the next
   [prepare] needing exactly that many floats takes it instead of
   allocating. Every row is written by the first sweep before any sweep
   reads it (a row is read only once [seen]), so the buffer's old
   contents never show. *)
let spare = Domain.DLS.new_key (fun () -> [||])

let recycle states = Domain.DLS.set spare states

let take_states len =
  let b = Domain.DLS.get spare in
  if Array.length b = len then begin
    Domain.DLS.set spare [||];
    b
  end
  else Array.make len 0.0

let prepare ~join ~delta_k (cfg : Transfer.config) (func : Func.t) =
  let grid =
    Flat_grid.make cfg.Transfer.layout ~granularity:cfg.Transfer.granularity
  in
  let p = cfg.Transfer.params in
  let slots = slots func in
  let entry = Func.entry_label func in
  let row_of l =
    match Label.Map.find_opt l slots.block_row with Some b -> b | None -> -1
  in
  let n_points = grid.Flat_grid.n_points in
  let blocks =
    Array.map
      (fun label ->
        let block = Func.find_block func label in
        let duty =
          Float.min 1.0
            (cfg.Transfer.block_frequency label /. cfg.Transfer.max_frequency)
        in
        {
          b_entry = Label.equal label entry;
          b_preds =
            Array.of_list (List.map row_of (Func.predecessors func label));
          b_slots =
            Array.mapi
              (fun index i ->
                compile_slot cfg grid ~duty
                  (cfg.Transfer.accesses_of_instr label index i))
              block.Block.body;
          b_term =
            compile_slot cfg grid ~duty
              (cfg.Transfer.accesses_of_term label block.Block.term);
        })
      slots.blocks
  in
  let n_blocks = Array.length blocks in
  let n_slots = slots.first.(n_blocks) in
  let ambient = p.Tdfa_thermal.Params.ambient_k in
  {
    grid;
    join;
    delta_k;
    c_ambient = ambient;
    c_leak_w = p.Tdfa_thermal.Params.leakage_w;
    c_leak_coeff = p.Tdfa_thermal.Params.leakage_temp_coeff;
    c_dt = cfg.Transfer.analysis_dt_s;
    c_cpoint = Transfer.point_capacitance cfg;
    c_lambda = Transfer.diffusion_coeff cfg;
    c_kappa = Transfer.cooling_coeff cfg;
    slots;
    blocks;
    n_points;
    cur = Array.make n_points ambient;
    scratch = Array.make n_points ambient;
    ambient_row = Array.make n_points ambient;
    states = take_states (n_slots * n_points);
    seen = Array.make n_slots false;
    exits = Array.make (n_blocks * n_points) ambient;
    incoming = Array.make (n_blocks * n_points) 0.0;
    valid = Array.make n_blocks false;
    skipped = 0;
    fbuf = Array.make 2 0.0;
  }

(* Diffusion then cooling of the point at grid row [r], column [c] on
   the grid's rim: reads the post-leakage state in [t.scratch], writes
   [t.cur], and tests which of the four neighbours exist. The exchange
   folds up, left, right, down from [0.0 +.], the boxed list order, so
   a point with no neighbours still adds [lambda *. 0.0]. *)
let rim_point t r c =
  let rows = t.grid.Flat_grid.point_rows
  and cols = t.grid.Flat_grid.point_cols in
  let s = t.scratch in
  let p = (r * cols) + c in
  let temp = s.(p) in
  let acc = 0.0 in
  let acc = if r > 0 then acc +. (s.(p - cols) -. temp) else acc in
  let acc = if c > 0 then acc +. (s.(p - 1) -. temp) else acc in
  let acc = if c < cols - 1 then acc +. (s.(p + 1) -. temp) else acc in
  let acc = if r < rows - 1 then acc +. (s.(p + cols) -. temp) else acc in
  let d = temp +. (t.c_lambda *. acc) in
  t.cur.(p) <- d -. (t.c_kappa *. (d -. t.c_ambient))

(* One transfer-function application, in place on [t.cur], in the boxed
   phase order. Heating adds in place; leakage writes the post-leakage
   state into [t.scratch], which diffusion reads as its pre-step copy;
   diffusion and cooling then run as one row-major stencil pass back
   into [t.cur]. Cooling is pointwise, so applying it to each diffused
   value as soon as it is computed changes no bit. *)
let apply t (slot : slot) =
  let n = t.n_points in
  let cur = t.cur and scratch = t.scratch in
  (* Heating. *)
  let pts = slot.sl_points and inc = slot.sl_inc in
  for k = 0 to Array.length pts - 1 do
    let p = pts.(k) in
    cur.(p) <- cur.(p) +. inc.(k)
  done;
  (* Leakage: excess = Float.max 0.0 (T - ambient) — for y = T - ambient
     that is y itself when y > 0 or y is NaN, else 0. *)
  let lw = t.c_leak_w
  and lc = t.c_leak_coeff
  and amb = t.c_ambient
  and dt = t.c_dt
  and cp = t.c_cpoint in
  let cells = t.grid.Flat_grid.cells_f in
  for p = 0 to n - 1 do
    let temp = cur.(p) in
    let d = temp -. amb in
    let excess = if d > 0.0 || d <> d then d else 0.0 in
    let leak = lw *. (1.0 +. (lc *. excess)) *. cells.(p) in
    scratch.(p) <- temp +. (leak *. dt /. cp)
  done;
  (* Diffusion and cooling: the first and last grid rows and the first
     and last point of every other row take the rim path; interior
     points have all four neighbours. *)
  let rows = t.grid.Flat_grid.point_rows
  and cols = t.grid.Flat_grid.point_cols
  and lambda = t.c_lambda
  and kappa = t.c_kappa in
  for c = 0 to cols - 1 do
    rim_point t 0 c
  done;
  for r = 1 to rows - 2 do
    rim_point t r 0;
    let base = r * cols in
    for p = base + 1 to base + cols - 2 do
      let temp = scratch.(p) in
      let acc = 0.0 +. (scratch.(p - cols) -. temp) in
      let acc = acc +. (scratch.(p - 1) -. temp) in
      let acc = acc +. (scratch.(p + 1) -. temp) in
      let acc = acc +. (scratch.(p + cols) -. temp) in
      let d = temp +. (lambda *. acc) in
      cur.(p) <- d -. (kappa *. (d -. amb))
    done;
    if cols > 1 then rim_point t r (cols - 1)
  done;
  if rows > 1 then
    for c = 0 to cols - 1 do
      rim_point t (rows - 1) c
    done

(* Largest pointwise |cur - states[slot]|, with Thermal_state.max_delta's
   NaN stickiness (any NaN difference poisons the maximum): the result
   lands in fbuf.(0), the NaN flag in fbuf.(1). *)
let max_delta_slot t base =
  let n = t.n_points in
  let cur = t.cur and states = t.states and acc = t.fbuf in
  acc.(0) <- 0.0;
  acc.(1) <- 0.0;
  for p = 0 to n - 1 do
    let d = cur.(p) -. states.(base + p) in
    let d = if d >= 0.0 then d else -.d in
    if d > acc.(0) then acc.(0) <- d;
    if d <> d then acc.(1) <- 1.0
  done

(* [into.(p) <- Stdlib.Float.max into.(p) src.(base + p)] for the [n]
   points, bit for bit. Float.max reads sign bits through a C call on
   every pair; two float comparisons settle every pair but equal zeros
   (where the signs decide) and NaNs (whose payload Float.max picks),
   and only those reach Float.max itself. *)
let max_into into src ~base n =
  for p = 0 to n - 1 do
    let x = into.(p) and y = src.(base + p) in
    if y > x then into.(p) <- y
    else if not (x > y || (x = y && x <> 0.0)) then
      into.(p) <- Float.max x y
  done

(* Joined incoming state of a block, into [t.cur]. *)
let load_incoming t (b : blockc) =
  let n = t.n_points in
  let cur = t.cur in
  if b.b_entry || Array.length b.b_preds = 0 then
    Array.fill cur 0 n t.c_ambient
  else begin
    let first = b.b_preds.(0) in
    if first < 0 then Array.fill cur 0 n t.c_ambient
    else Array.blit t.exits (first * n) cur 0 n;
    for k = 1 to Array.length b.b_preds - 1 do
      let row = b.b_preds.(k) in
      let src = if row < 0 then t.ambient_row else t.exits in
      let base = if row < 0 then 0 else row * n in
      match t.join with
      | Join_max -> max_into cur src ~base n
      | Join_average ->
        for p = 0 to n - 1 do
          cur.(p) <- (cur.(p) +. src.(base + p)) /. 2.0
        done
    done
  end

(* Whether block row [bi]'s stored states can be reused as they are:
   its snapshot is current, the incoming state just joined into [t.cur]
   is bit-equal to it, and its exit row is finite. The transfer is
   deterministic, so an equal incoming state recomputes every stored
   state bit for bit; and a NaN or infinity never leaves a point once it
   reaches it (every phase updates a point as x + y or x - y of its own
   value), so a finite exit row means every stored state of the block is
   finite, and each recomputed change |x - x| would be exactly 0. *)
let reusable t bi =
  let n = t.n_points in
  t.valid.(bi)
  &&
  let cur = t.cur and snap = t.incoming and exits = t.exits in
  let base = bi * n in
  let p = ref 0 in
  while
    !p < n
    && Int64.bits_of_float cur.(!p) = Int64.bits_of_float snap.(base + !p)
    && exits.(base + !p) -. exits.(base + !p) = 0.0
  do
    incr p
  done;
  !p = n

(* One full sweep over the function in reverse postorder — the flat
   counterpart of the boxed [pass] closure in Analysis.fixpoint. Returns
   the largest clamped change and the instructions still over delta, in
   encounter order. A block whose stored states are [reusable] is not
   recomputed: each of its instructions counts as change 0, which adds
   nothing to the largest change and is unstable only when 0 > delta,
   exactly as the full recomputation would report it. *)
let pass t =
  let n = t.n_points in
  let worst = ref 0.0 in
  let unstable = ref [] in
  for bi = 0 to Array.length t.blocks - 1 do
    let b = t.blocks.(bi) and label = t.slots.blocks.(bi) in
    load_incoming t b;
    if reusable t bi then begin
      let k = Array.length b.b_slots in
      t.skipped <- t.skipped + k;
      if 0.0 > t.delta_k then
        for index = 0 to k - 1 do
          unstable := (label, index) :: !unstable
        done
    end
    else begin
      Array.blit t.cur 0 t.incoming (bi * n) n;
      t.valid.(bi) <- true;
      for index = 0 to Array.length b.b_slots - 1 do
        let s = t.slots.first.(bi) + index in
        apply t b.b_slots.(index);
        let change =
          if t.seen.(s) then begin
            max_delta_slot t (s * n);
            if t.fbuf.(1) <> 0.0 then infinity else t.fbuf.(0)
          end
          else infinity
        in
        if change > t.delta_k then unstable := (label, index) :: !unstable;
        let contribution =
          if change < infinity then change else t.delta_k +. 1.0
        in
        if contribution > !worst then worst := contribution;
        Array.blit t.cur 0 t.states (s * n) n;
        t.seen.(s) <- true
      done;
      apply t b.b_term;
      Array.blit t.cur 0 t.exits (bi * n) n
    end
  done;
  (!worst, List.rev !unstable)

let skipped t = t.skipped

let exits t = t.exits

(* Last row to first: states warm along a run, so a late row mostly
   holds the maximum already and [max_into]'s branch is predictable.
   Forwards, a 200-window trace took a new maximum at about half of all
   points and the fold ran 2.4x slower. *)
let peak_rows ~n_points ~ambient states =
  let rows = Array.length states / n_points in
  if rows = 0 then Array.make n_points ambient
  else begin
    let peak = Array.sub states ((rows - 1) * n_points) n_points in
    for r = rows - 2 downto 0 do
      max_into peak states ~base:(r * n_points) n_points
    done;
    peak
  end

let peak_points t =
  peak_rows ~n_points:t.n_points ~ambient:t.c_ambient t.states

(* The certificate sweep: load [u] as the exit states, sweep once, and
   report whether no new exit exceeds [u] (a NaN fails the test). The
   workspace is left holding that sweep's states, so [peak_points] then
   bounds every instruction state reachable from below [u]. *)
let post_fixpoint t u =
  let len = Array.length t.exits in
  if Array.length u <> len then invalid_arg "Flat_core.post_fixpoint";
  Array.blit u 0 t.exits 0 len;
  (* The exit rows no longer follow from the snapshots. *)
  Array.fill t.valid 0 (Array.length t.valid) false;
  ignore (pass t);
  let ok = ref true in
  for i = 0 to len - 1 do
    if not (t.exits.(i) <= u.(i)) then ok := false
  done;
  !ok

let finalize t = (t.slots, t.states, t.exits)
