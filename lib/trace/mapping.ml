type policy = Direct | Zipf_rank | Hashed

let policy_name = function
  | Direct -> "direct"
  | Zipf_rank -> "zipf-rank"
  | Hashed -> "hashed"

let all_policies = [ Direct; Zipf_rank; Hashed ]

let policy_of_string s =
  match String.lowercase_ascii s with
  | "direct" -> Ok Direct
  | "zipf-rank" | "zipf_rank" | "zipfrank" -> Ok Zipf_rank
  | "hashed" | "hash" -> Ok Hashed
  | _ -> Error (Printf.sprintf "unknown mapping policy %S" s)

let word_bytes = 8

type t = { cells : int; cell_of_word : int -> int }

let cells t = t.cells
let cell_of_addr t addr = t.cell_of_word (addr / word_bytes)

(* splitmix64's finalizer — good avalanche, no state, stable forever
   (the mapping is part of cache keys downstream). *)
let mix w =
  let open Int64 in
  let z = of_int w in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  (* [to_int] keeps the low 63 bits, so the top of the 64-bit hash can
     land in the native sign bit; mask it off to stay nonnegative. *)
  Stdlib.( land ) (to_int z) Stdlib.max_int

let hashed_cell cells w = mix w mod cells

let word_counts (trace : Sample.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Sample.sample) ->
      let w = s.Sample.addr / word_bytes in
      Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
    trace.Sample.samples;
  tbl

let distinct_words trace = Hashtbl.length (word_counts trace)

let max_cells = 65536

let check_cells cells =
  if cells < 1 || cells > max_cells then
    Error (Printf.sprintf "cells must be in 1..%d, got %d" max_cells cells)
  else Ok ()

let build ~policy ~cells trace =
  (match check_cells cells with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Mapping.build: " ^ msg));
  let cell_of_word =
    match policy with
    | Direct -> fun w -> w mod cells
    | Hashed -> hashed_cell cells
    | Zipf_rank ->
        let counts = word_counts trace in
        let ranked =
          Hashtbl.fold (fun w n acc -> (w, n) :: acc) counts []
          |> List.sort (fun (w1, n1) (w2, n2) ->
                 if n1 <> n2 then compare n2 n1 else compare w1 w2)
        in
        let rank = Hashtbl.create (List.length ranked) in
        List.iteri (fun i (w, _) -> Hashtbl.add rank w (i mod cells)) ranked;
        fun w ->
          (match Hashtbl.find_opt rank w with
          | Some c -> c
          | None -> hashed_cell cells w)
  in
  { cells; cell_of_word }
