(** Glue from an execution trace to the RC thermal model: converts
    per-cell access counts to average dynamic power and solves for the
    steady temperatures. This is the "measured" side of every
    experiment. *)

open Tdfa_thermal

val power_of_counts :
  Params.t -> window_cycles:int -> reads:int array -> writes:int array -> float array
(** Dynamic power per cell over one window. *)

val steady_of_counts :
  ?obs:Tdfa_obs.Obs.sink ->
  ?leak_mask:bool array ->
  Rc_model.t ->
  cycles:int ->
  reads:int array ->
  writes:int array ->
  float array
(** Steady-state temperatures under the average power of [reads] and
    [writes] accesses per cell spread over [cycles] cycles (at least
    1) — the long-run thermal map of the access pattern (what Fig. 1
    shows). Includes one leakage feedback iteration. [leak_mask.(i) =
    false] power-gates cell [i]: it contributes no leakage (used by the
    bank-gating experiment, §4's compromise with switched-off banks).
    Traced as one [thermal.steady] span with the cell count and the
    sweeps each of the two solves ran.
    @raise Invalid_argument unless both count arrays have one entry per
    model node. *)

val steady_temps :
  ?obs:Tdfa_obs.Obs.sink ->
  ?leak_mask:bool array ->
  Rc_model.t ->
  Trace.t ->
  cell_of_var:(Tdfa_ir.Var.t -> int option) ->
  float array
(** {!steady_of_counts} over the trace's per-cell totals
    ({!Trace.access_counts}) and its cycle count. *)
