(** Seeded, deterministic fault injection.

    Each injector applies one representative pass-bug to an IR function
    (or to a register assignment, or to a thermal state) and is targeted
    so that the resulting mutant violates a {!Check} rule by
    construction: dropping the sole definition of a live variable breaks
    definite assignment, retargeting a branch to a fresh label breaks CFG
    integrity, clobbering a register assignment makes two live variables
    collide, and transposing a def with a use operand makes the
    instruction read its own not-yet-assigned destination. Injection
    returns [None] when the function offers no applicable site (e.g. no
    branches to retarget).

    The point is falsification of the verifier itself: a rule that no
    injected fault can trigger is a rule that proves nothing. *)

open Tdfa_ir

type kind =
  | Drop_def  (** replace the sole definition of a used variable by [nop] *)
  | Retarget_branch  (** point one branch/jump edge at a nonexistent label *)
  | Clobber_register
      (** reassign a variable's cell onto an interfering variable's cell *)
  | Swap_operands
      (** transpose the destination with a source operand of a [binop],
          so the instruction reads its own (undefined) destination *)

val all_kinds : kind list
val kind_name : kind -> string

type t = {
  kind : kind;
  description : string;  (** what was mutated, for logs *)
  func : Func.t;  (** the mutant *)
  assignment : Tdfa_regalloc.Assignment.t option;
      (** the clobbered assignment ([Clobber_register] only) *)
}

val inject :
  seed:int -> kind:kind -> ?assignment:Tdfa_regalloc.Assignment.t ->
  Func.t -> t option
(** Deterministic in [seed]. [Clobber_register] requires [assignment] and
    returns [None] without it (or when no two assigned variables
    interfere). *)

val inject_all :
  seed:int -> ?assignment:Tdfa_regalloc.Assignment.t -> Func.t -> t list
(** One mutant per applicable kind. *)

type thermal_kind = Nan | Inf

val inject_state :
  seed:int -> kind:thermal_kind -> Tdfa_core.Thermal_state.t ->
  Tdfa_core.Thermal_state.t * int
(** Returns a corrupted copy and the poisoned point index. *)

val corrupt_recording :
  seed:int -> Tdfa_core.Incremental.prior -> Tdfa_core.Incremental.prior
(** Deterministically corrupt one thermal state of a cached
    incremental result (see {!Tdfa_core.Incremental.poison_prior}): the
    mutant fails the prior's integrity digest, so a re-analysis must
    fall back to a cold run instead of returning the corruption. *)

(** {1 Seeded fault plans}

    One declarative, seeded description of the faults an execution
    should suffer, shared by every command that injects them
    ([tdfa serve --chaos/--fault-plan], [tdfa batch --fault-plan],
    [tdfa verify --fault-plan]): each {!Plan.site} names one injection
    point, its rate is the per-opportunity probability, and the whole
    plan is deterministic in its seed. The on-disk format is one
    [key = value] binding per line ([seed], [stall-ms], one line per
    site rate), [#] comments; {!Plan.to_string} round-trips through
    {!Plan.of_string}. *)

module Plan : sig
  type site =
    | Frame_garbage  (** scramble a protocol frame before parsing *)
    | Disconnect  (** drop the client connection mid-request *)
    | Corrupt_recording
        (** poison the session's cached incremental result
            ({!corrupt_recording}) *)
    | Worker_stall  (** wedge a domain-pool worker for [stall_ms] *)
    | Torn_cache  (** make an on-disk cache read fail mid-entry *)
    | Transient
        (** a retryable transient failure (pool contention and the
            like) surfaced to the retry/backoff policy *)
    | Broken_ir
        (** mutate the request's IR with {!inject} so the verification
            gate must reject it *)
    | Session_crash
        (** raise from inside a session handler, exercising the
            crash-only quarantine-and-rebuild path *)

  val all_sites : site list
  val site_name : site -> string
  val site_of_string : string -> site option

  type t = {
    seed : int;
    rates : (site * float) list;  (** per-opportunity probabilities *)
    stall_ms : float;
        (** duration of an injected worker stall; {!of_string} accepts
            only finite values in [0, 60000] ms *)
  }

  val none : t
  (** Seed 0, every rate 0 — injects nothing. *)

  val default : seed:int -> t
  (** The standard chaos mix ([tdfa serve --chaos SEED]). *)

  val rate : t -> site -> float
  val to_string : t -> string
  val of_string : string -> (t, string) result
  val of_file : string -> (t, string) result

  type injector
  (** A running plan: a mutex-protected seeded stream of draws, safe to
      share with domain-pool workers. Draws are deterministic in the
      seed and the draw order. *)

  val injector : t -> injector
  val plan : injector -> t

  val fires : injector -> site -> bool
  (** One draw: does this opportunity fault? Always [false] for a
      zero-rate site (and consumes no draw). *)

  val draws : injector -> int
  (** Number of draws consumed so far. *)

  val stall_s : injector -> float
  (** The plan's stall duration in seconds. *)
end
