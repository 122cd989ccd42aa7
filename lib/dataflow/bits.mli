(** Fixed-size sets of small non-negative integers — the variable ids of
    a {!Numbering} — as arrays of 63-bit words. Bit [i] lives in word
    [i / 63]. Iteration visits members in ascending order, which for
    variable ids is [Var.compare] order.

    The type is exposed so that hot loops can combine whole words; every
    set made by {!create} for [n] elements has {!words}[ n] words, and
    the operations on two sets expect equal lengths. *)

type t = int array

val width : int
(** Bits per word: 63. *)

val words : int -> int
(** Words needed for [n] elements. *)

val create : int -> t
(** The empty set over [0 .. n - 1]. *)

val full : int -> t
(** The set [{0, ..., n - 1}]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val clear : t -> unit

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] removes from [dst] what [src] lacks. *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)
