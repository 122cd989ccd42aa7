(** Benchmark kernels expressed in the IR — the register access patterns
    of the multimedia/DSP workloads that motivate the paper. Sizes are
    kept small enough that a full interpreted trace takes milliseconds,
    yet large enough to reach thermal steady state in simulation.

    Memory map convention: each kernel keeps its arrays at distinct
    1000-word bases, far below {!Tdfa_regalloc.Spill.base_address}. *)

open Tdfa_ir

val counted_loop : Builder.t -> count:int -> (Var.t -> unit) -> Var.t
(** Emit the canonical [for (i = 0; i < count; i += 1)] scaffold around
    [body], leaving the exit block open; returns the induction variable.
    Shared by the kernels and the random {!Generator}. *)

val matmul : ?n:int -> unit -> Func.t
(** Dense [n x n] matrix multiply (default 8): three nested loops, a hot
    accumulator, medium pressure. *)

val fir : ?n:int -> ?taps:int -> unit -> Func.t
(** FIR filter (default 64 samples, 8 taps): coefficients pinned in
    registers and reused every iteration — the classic RF hot spot. *)

val idct_row : ?rows:int -> unit -> Func.t
(** 8-point IDCT-like butterfly applied to each row (default 8 rows):
    high instantaneous register pressure. *)

val crc : ?bytes:int -> unit -> Func.t
(** Bitwise CRC over a buffer (default 32 bytes): two nested loops over a
    tiny, extremely hot variable set. *)

val stencil : ?n:int -> unit -> Func.t
(** 5-point stencil over an [n x n] grid (default 8). *)

val bubble_sort : ?n:int -> unit -> Func.t
(** In-memory bubble sort (default 16 elements): branchy CFG, data-
    dependent control flow. *)

val fib : ?n:int -> unit -> Func.t
(** Iterative Fibonacci (default 30): three variables hammered in a tight
    loop — the extreme hot spot. *)

val dotprod : ?n:int -> unit -> Func.t
val vecadd : ?n:int -> unit -> Func.t

val scale : ?n:int -> unit -> Func.t
(** [y\[i\] = k * x\[i\]] with the factor naively reloaded from memory in
    every iteration — the canonical register-promotion target. *)

val horner : ?degree:int -> ?n:int -> unit -> Func.t
(** Polynomial evaluation with [degree]+1 coefficients held in registers
    (default degree 12, 32 evaluations) — pressure scales with the
    degree. *)

val conv2d : ?n:int -> unit -> Func.t
(** 3x3 convolution over an [n x n] image (default 8); nine coefficient
    registers stay hot for the whole kernel. *)

val histogram : ?n:int -> ?bins:int -> unit -> Func.t
(** Binning with data-dependent addressing (default 64 samples, 16
    bins). *)

val transpose : ?n:int -> unit -> Func.t
(** Matrix transpose — memory-bound, low arithmetic density. *)

val max_reduce : ?n:int -> unit -> Func.t
(** Branchy max reduction: one data-dependent diamond per element. *)

val high_pressure : ?live:int -> ?iters:int -> unit -> Func.t
(** Synthetic kernel keeping [live] variables (default 24) simultaneously
    live inside a loop — the register-pressure knob of experiment E3. *)

val rename_with_prefix : Func.t -> name:string -> prefix:string -> Func.t
(** Rename a function and prefix all of its variables, so several kernels
    can share one program (and one trace namespace). *)

val multiproc_program : unit -> Program.t
(** A three-function program — [main] calls a FIR filter and a CRC
    checksum in a loop — for the interprocedural experiments. *)

val all : (string * Func.t) list
(** Every kernel at its default size, in a stable order. *)

val find : string -> Func.t option

val lookup : string -> (Func.t, string) result
(** {!find}, with the error every front end reports:
    ["unknown kernel NAME (try list-kernels)"]. *)

val lookup_list : string -> (Func.t list, string) result
(** A comma-separated list of kernel names (blanks around a name
    ignored), in order; the error names the first unknown one. *)
