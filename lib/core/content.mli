(** Content identity: the one place that decides how analysis inputs
    and results are encoded when two of them are compared for
    equality.

    The batch engine's cache key, a report's result fingerprint, the
    incremental reuse key and its integrity check all go through
    {!encode}. It is [Marshal] without
    sharing over plain data (no closures, no hash tables, whose layout
    depends on insertion history), which is a canonical encoding:
    structurally equal values encode to equal bytes, floats by their
    raw IEEE-754 bits, and values that differ anywhere encode
    differently. *)

val encode : 'a -> string
(** The canonical byte encoding. Callers pass plain data only: a
    closure raises [Invalid_argument], and a hash table would make the
    bytes depend on its insertion order. *)

val digest : 'a -> string
(** Hex MD5 of {!encode}. *)

val outcome : Analysis.outcome -> string
(** The digest of an analysis result, in a fixed order: convergence,
    iteration count and last-round change, the slot table (its blocks
    and first rows), the state and exit arrays, and the still-unstable
    instructions. The [initial] state and the sum order are left out:
    the inputs fix the one, the slot table the other. Every NaN is
    hashed as [Float.nan]: its payload depends on the operand order of
    an addition, which neither OCaml nor the C step kernel fixes, so
    two runs that differ only there (the boxed and flat cores) digest
    equal. Flipping any other bit of any of these changes it. *)

val lift_inputs : Analysis.outcome -> string
(** The digest of the lift inputs a certificate reads besides the
    outcome's states: the exit rows before the last sweep and the
    largest change of the sweep before the last, NaNs canonical as in
    {!outcome}. Kept apart from {!outcome}, which fingerprints results
    and cache entries: those stay what they were. *)
