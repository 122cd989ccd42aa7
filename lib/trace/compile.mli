(** Compiling a mapped sample stream into the analysis's native food:
    a carrier {!Tdfa_ir.Func.t} plus a per-instruction access-event
    function — the exact shape [Tdfa.Driver.run]'s [Trace] input takes.

    Time is discretised into fixed windows of [window_us]; window [w]
    covers [\[w*window_us, (w+1)*window_us)]. Each window becomes one
    [Nop] in a single straight-line block, and every sample falling in
    that window becomes weight on that Nop's access list, aggregated
    per (cell, kind): 17 reads of cell 3 in a window compile to one
    [Read] event on cell 3 with weight 17. The carrier has no
    variables and every block runs at frequency 1, so the fixpoint
    sweeps the windows exactly as the sampler saw them. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_core

type t
(** A compiled trace: carrier function + per-window events. *)

type stats = {
  samples : int;  (** total samples compiled *)
  windows : int;  (** carrier instructions (>= 1) *)
  cells_touched : int;  (** distinct cells with at least one access *)
  reads : int;
  writes : int;
  duration_us : int;
}

val compile :
  ?obs:Tdfa_obs.Obs.sink ->
  ?window_us:int ->
  policy:Mapping.policy ->
  cells:int ->
  Sample.t ->
  t
(** Map then window. Default [window_us] is 1000 (1 ms per analysis
    instruction). After {!check}'s timestamp walk (and, for
    [Zipf_rank], {!Mapping.build}'s count), one pass over the samples
    windows each, maps its address once and aggregates it per (cell,
    kind) into its window's events, counting per-cell reads and writes
    as it goes. Emits [trace.map] / [trace.window] spans and
    [trace.samples] / [trace.windows] counters to [obs].
    @raise Invalid_argument when {!check} rejects the arguments. *)

val max_windows : int
(** 2{^18}: the most windows {!check} lets a stream span (262 s of 1 ms
    windows). Each window costs a carrier instruction and a stored state
    whatever the cell count. *)

val max_window_cells : int
(** 2{^22}: the largest [windows * cells] {!check} accepts — that
    product sizes the fixpoint's per-instruction state buffer (32 MiB of
    floats at the limit, five times a 200-window, 4096-cell stream). *)

val check : ?window_us:int -> cells:int -> Sample.t -> (unit, string) result
(** The one size check in front of {!compile} and {!layout_of_cells}:
    [window_us > 0], {!Mapping.check_cells}, samples in nondecreasing
    time order (what {!Sample.make} and {!Sample.parse} guarantee; a
    record built by hand may break it), at most {!max_windows} windows
    and at most {!max_window_cells} for [windows * cells].
    Reads only the sample timestamps and allocates nothing per sample,
    so [tdfa trace] and the serve daemon reject an oversized request
    before any work. [window_us] defaults to 1000 as in {!compile}. *)

val func : t -> Func.t
(** The carrier: one block of [windows] Nops ending in [ret]. *)

val accesses : t -> Label.t -> int -> Access.event list
(** Events of the given instruction, in first-touch order within the
    window; empty off the carrier block. *)

val driver_input : t -> Tdfa.Driver.input
(** [Trace { func; accesses }] — feed straight to [Tdfa.Driver.run]. *)

val stats : t -> stats

val stream_id :
  ?window_us:int -> policy:Mapping.policy -> cells:int -> Sample.t -> string
(** Hex digest identifying the stream as {!compile} would compile it
    with the same arguments — covers every sample, the mapping policy,
    cell count and window size. Equal streams (by content, not
    provenance) get equal ids; the engine keys its result cache on
    this. Computed on demand: only batch trace jobs need it. *)

val exec_trace : t -> Tdfa_exec.Trace.t * (Var.t -> int option)
(** The same windows as a cycle-stamped execution trace (one cycle per
    window, synthetic variables named [cell<i>]) plus the matching
    [cell_of_var], for driving the RC simulator's measured side
    ([Tdfa_exec.Driver.steady_temps]) against the analysis. Aggregated
    weights are expanded back to one event per access. {!access_counts}
    gives the same per-cell totals without the expansion. *)

val access_counts : t -> int array * int array
(** Whole-stream totals per cell, [(reads, writes)], each of length
    [cells] (fresh arrays, counted by {!compile}'s pass): the
    aggregated weights summed over every window. Equal to
    [Tdfa_exec.Trace.access_counts] of {!exec_trace} without expanding
    a single event, so the measured side
    ([Tdfa_exec.Driver.steady_of_counts]) reads it directly. *)

val layout_of_cells : int -> Layout.t
(** Near-square grid holding the given cell count: the factor pair
    [rows * cols = cells] with rows <= cols and rows maximal (64 → 8x8,
    32 → 4x8, a prime like 7 → 1x7).
    @raise Invalid_argument when {!Mapping.check_cells} rejects
    [cells]. *)
