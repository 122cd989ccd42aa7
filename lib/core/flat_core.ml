open Tdfa_ir

(* The flat thermal core: the Fig. 2 per-instruction transfer function
   and block sweep of Analysis.fixpoint, recompiled onto preallocated
   flat float arrays with a struct-of-arrays layout.

   The boxed path (Transfer.apply driven by Analysis's boxed pass)
   allocates per instruction visit: two full state copies, a neighbour
   list per point in the diffusion fold, three closure traversals and
   the access-event list of the instruction. This kernel precompiles
   everything iteration-invariant once — access events become (point,
   increment) arrays, per-point cell counts a float array, the seven
   transfer coefficients one float array — and then runs each program
   point as heating in place followed by one C call ([step],
   flat_step_stubs.c): leakage into a scratch copy, diffusion with
   cooling as a single row-major grid stencil back (no neighbour table:
   neighbours sit at fixed offsets, and only rim points test which
   exist), the change against the point's last state and the store of
   the new one. The sweep keeps

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
   (including Stdlib.Float.max's, replicated inline, and in C the boxed
   fold order with contraction off), so the two cores produce
   bit-identical Analysis.info, up to the payload of a NaN — certified
   by the differential battery in test_core_flat.ml. *)

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
  coef : float array;
      (* ambient, leakage W, leakage coefficient, dt, C_point, lambda,
         kappa: the step kernel's coefficients, in its order *)
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
}

(* Everything one program point does after heating, in place on [cur]
   (flat_step_stubs.c): leakage into [scratch], the four-neighbour
   stencil with cooling back into [cur], and the store of [cur] into the
   row at [base] of the row buffer. With [change] = 1 it returns the
   largest change against that row's old contents, infinity once any
   change is NaN; with 0 it returns infinity. Called directly, never
   through a helper, so its float result stays unboxed. *)
external step :
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) = "tdfa_flat_step_byte" "tdfa_flat_step"
[@@noalloc]

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
   contents never show — which is also why a fresh buffer is left
   uninitialised rather than filled with zeros. *)
let spare = Domain.DLS.new_key (fun () -> [||])

let recycle states = Domain.DLS.set spare states

let take_states len =
  let b = Domain.DLS.get spare in
  if Array.length b = len then begin
    Domain.DLS.set spare [||];
    b
  end
  else Array.create_float len

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
    coef =
      [|
        ambient;
        p.Tdfa_thermal.Params.leakage_w;
        p.Tdfa_thermal.Params.leakage_temp_coeff;
        cfg.Transfer.analysis_dt_s;
        Transfer.point_capacitance cfg;
        Transfer.diffusion_coeff cfg;
        Transfer.cooling_coeff cfg;
      |];
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
  }

(* Heating: each access event of the program point adds its increment
   in place. *)
let heat t (slot : slot) =
  let cur = t.cur and pts = slot.sl_points and inc = slot.sl_inc in
  for k = 0 to Array.length pts - 1 do
    let p = pts.(k) in
    cur.(p) <- cur.(p) +. inc.(k)
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
    Array.blit t.ambient_row 0 cur 0 n
  else begin
    let first = b.b_preds.(0) in
    if first < 0 then Array.blit t.ambient_row 0 cur 0 n
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
  let rows = t.grid.Flat_grid.point_rows
  and cols = t.grid.Flat_grid.point_cols
  and cells = t.grid.Flat_grid.cells_f in
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
        heat t b.b_slots.(index);
        let change =
          step t.cur t.scratch cells t.coef t.states rows cols (s * n)
            (if t.seen.(s) then 1 else 0)
        in
        if change > t.delta_k then unstable := (label, index) :: !unstable;
        let contribution =
          if change < infinity then change else t.delta_k +. 1.0
        in
        if contribution > !worst then worst := contribution;
        t.seen.(s) <- true
      done;
      (* The terminator's state is the block's exit row. The step's
         result is compared, not ignored: an ignored float result of an
         external is boxed. *)
      heat t b.b_term;
      ignore
        (step t.cur t.scratch cells t.coef t.exits rows cols (bi * n) 0
        > 0.0)
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
  peak_rows ~n_points:t.n_points ~ambient:t.coef.(0) t.states

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
