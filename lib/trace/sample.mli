(** Sampled register-file access streams, as text.

    The tool's scenario space used to be whatever IR the kernels and the
    generator could spell; this format opens it to {e measured} streams:
    any profiler that can emit (timestamp, load/store, address) triples
    — perf/PEBS address sampling being the canonical source — can feed
    the thermal analysis. One sample per line, perf-script-like:

    {v
    # tdfa trace v1
    # name: webspam
    0.000012 R 0x7f3a91c40
    0.000031 W 0x7f3a91c48
    v}

    Fields are whitespace-separated: a timestamp in seconds (parsed to
    microsecond resolution), an access kind ([R]/[W], with
    [load]/[store]/[mem-loads]/[mem-stores] accepted as synonyms so raw
    perf-script event names paste in), and a byte address (hex with
    [0x], or decimal). [#] starts a comment; a [# name:] comment names
    the trace. Samples must be in nondecreasing time order — the order
    a sampler emits them.

    Raw [perf script] output is accepted as-is, no reformatting needed:
    a line in the [perf script -F comm,pid,time,event,addr] column
    layout — ["comm pid \[cpu\] time: event: addr"], the [\[cpu\]]
    column optional — parses to the same triple. The timestamp drops
    its trailing colon, the event name keeps only the part before the
    first colon (so modifier suffixes like [mem-loads:uP:] work) and
    must be one of the load/store spellings above, and the address is
    read as hexadecimal with or without its [0x] prefix. *)

open Tdfa_core

type sample = {
  t_us : int;  (** microseconds since the first sample's epoch *)
  kind : Access.kind;
  addr : int;  (** byte address *)
}

type t = {
  name : string;
  samples : sample list;  (** nondecreasing [t_us] *)
}

val make : ?name:string -> sample list -> t
(** @raise Invalid_argument if samples are out of time order or an
    address is negative. *)

val duration_us : t -> int
(** Timestamp of the last sample (0 for an empty trace). *)

val parse :
  ?obs:Tdfa_obs.Obs.sink -> ?name:string -> string -> (t, string) result
(** Parse the text format in one pass over the string. Errors carry the
    offending line number. [name] (default ["trace"]) is used unless a
    [# name:] directive overrides it. Runs inside a [trace.parse] span
    of [obs] (default {!Tdfa_obs.Obs.null}). *)

val of_file : ?obs:Tdfa_obs.Obs.sink -> string -> (t, string) result
(** {!parse} the file's contents, defaulting the trace name to the
    file's basename without extension. *)

val print : t -> string
(** Render back to the text format ([%.6f] seconds, [R]/[W], hex
    addresses). [parse (print t)] re-reads [t] exactly: timestamps are
    stored in integer microseconds, so the round trip loses nothing. *)
