(** Minimal JSON for the serve protocol: one value per line.

    The daemon speaks line-delimited JSON over its Unix socket; this
    module is the whole codec — a recursive-descent reader and a
    printer that never emits a raw newline, so [to_string] output is
    always a valid single-line protocol frame. It exists so the serve
    stack adds no dependency beyond the toolchain ([Yojson] is not in
    the build). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact, single-line; strings escaped per RFC 8259, and a
    non-finite [Float] printed as [null]. *)

val of_string : string -> (t, string) result
(** Whole-string parse (leading/trailing whitespace allowed, trailing
    garbage rejected). Accepts the common escapes plus [\uXXXX]
    (UTF-8-encoded on read). *)

(** {1 Accessors} *)

val member : string -> t -> t option
val to_str : t -> string option
val to_int : t -> int option
val to_float : t -> float option
(** [Int] widens to float. *)

val to_bool : t -> bool option
val str_member : string -> t -> string option
val int_member : string -> t -> int option
val float_member : string -> t -> float option
val bool_member : string -> t -> bool option
