(** The project's one JSON codec.

    Every machine-readable artifact is built as a {!t} and printed here:
    serve protocol frames, SARIF lint logs, {!Obs} trace events, the
    [BENCH_*.json] experiment records and the CLI's [--json] views. A
    recursive-descent reader and a printer with two layouts:
    {!to_string} never emits a raw newline, so its output is always a
    valid single-line protocol frame; {!to_string_indented} is the
    human-diffable layout of files. It exists so the stack adds no
    dependency beyond the toolchain ([Yojson] is not in the build).

    Numbers: an integral [Float] below 1e17 in magnitude prints as
    [%.1f] (so it reads back as a [Float]), any other finite [Float] as
    [%.17g] (which reads back bit-exactly), and a non-finite [Float] as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line; strings escaped per RFC 8259 (other bytes,
    UTF-8 included, pass through unchanged). *)

val to_string_indented : t -> string
(** The same value with every element of a non-empty array or object on
    its own line, indented two spaces per level, as ["key": value];
    empty ones print as [[]] and [{}]. No trailing newline. *)

val of_string : string -> (t, string) result
(** Whole-string parse (leading/trailing whitespace allowed, trailing
    garbage rejected). Accepts the common escapes plus [\uXXXX]
    (UTF-8-encoded on read; a surrogate pair is one code point, a lone
    surrogate U+FFFD). Nesting deeper than 512 levels is an error. Never
    raises. *)

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
