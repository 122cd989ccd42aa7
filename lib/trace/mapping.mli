(** Address→cell mapping: how sampled byte addresses land on RF cells.

    The thermal model knows nothing about virtual addresses; it heats
    whatever cell an access names. A mapping policy decides which cell
    that is, and the choice is the experiment's knob: [Direct] preserves
    the stream's spatial structure (stride patterns stay stripes),
    [Zipf_rank] sorts cells by measured hotness so cell 0 is always the
    hottest word — the canonical layout for skew studies — and [Hashed]
    scatters any structure, the uniform-pressure baseline. *)

type policy = Direct | Zipf_rank | Hashed

val policy_name : policy -> string
val policy_of_string : string -> (policy, string) result
val all_policies : policy list

val word_bytes : int
(** Addresses are first truncated to 8-byte word granularity; two
    samples in the same word always heat the same cell. *)

type t
(** A compiled mapping: a total function from byte address to cell
    index in [\[0, cells)]. *)

val cells : t -> int

val cell_of_addr : t -> int -> int

val max_cells : int
(** 65536: the largest cell count {!build} accepts (a 256x256 register
    file). *)

val check_cells : int -> (unit, string) result
(** [Ok ()] when [1 <= cells <= max_cells], else an error naming the
    range. Allocates nothing, so callers can reject an oversized request
    before any work. *)

val build : policy:policy -> cells:int -> Sample.t -> t
(** [Direct]: word index modulo [cells]. [Hashed]: splitmix-style mix of
    the word index, modulo [cells]. [Zipf_rank]: words ranked by
    descending access count in the given trace (ties broken by
    ascending address); rank [i] maps to cell [i mod cells]; words
    never seen in the trace fall back to the hashed mapping.

    @raise Invalid_argument when {!check_cells} rejects [cells]. *)

val distinct_words : Sample.t -> int
(** Number of distinct words the trace touches. *)
