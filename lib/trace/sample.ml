open Tdfa_core

type sample = { t_us : int; kind : Access.kind; addr : int }
type t = { name : string; samples : sample list }

let check samples =
  let rec go prev = function
    | [] -> ()
    | s :: rest ->
        if s.addr < 0 then invalid_arg "Sample.make: negative address";
        if s.t_us < prev then invalid_arg "Sample.make: samples out of order";
        go s.t_us rest
  in
  go 0 samples

let make ?(name = "trace") samples =
  check samples;
  { name; samples }

let duration_us t =
  List.fold_left (fun acc s -> max acc s.t_us) 0 t.samples

(* Timestamps travel as "%.6f" seconds but live as integer microseconds:
   parsing goes through a decimal-string split rather than float
   multiplication, so print/parse is exact for any trace under ~292k
   years. *)
let us_of_seconds_string s =
  let whole, frac =
    match String.index_opt s '.' with
    | None -> (s, "")
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let frac =
    if String.length frac > 6 then String.sub frac 0 6
    else frac ^ String.make (6 - String.length frac) '0'
  in
  let whole = if whole = "" then "0" else whole in
  match (int_of_string_opt whole, int_of_string_opt ("1" ^ frac)) with
  | Some w, Some f when w >= 0 -> Some ((w * 1_000_000) + f - 1_000_000)
  | _ -> None

let kind_of_string = function
  | "R" | "r" | "load" | "loads" | "mem-loads" -> Some Access.Read
  | "W" | "w" | "store" | "stores" | "mem-stores" -> Some Access.Write
  | _ -> None

let addr_of_string s =
  match int_of_string_opt s with Some a when a >= 0 -> Some a | _ -> None

(* `perf script -F comm,pid,time,event,addr` columns (PEBS memory
   sampling): "comm pid [cpu] time: event: addr". The optional [cpu]
   column is skipped, the trailing colon on the timestamp is dropped,
   the event keeps only its name (modifier suffixes like ":uP" and the
   trailing colon go), and the address is hexadecimal with or without
   its 0x prefix. *)
let hex_addr_of_string s =
  let s =
    if String.length s > 1 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then s
    else "0x" ^ s
  in
  match int_of_string_opt s with Some a when a >= 0 -> Some a | _ -> None

let name_directive line =
  (* "# name: foo" (spacing flexible) *)
  let body = String.sub line 1 (String.length line - 1) |> String.trim in
  let prefix = "name:" in
  if String.length body > String.length prefix
     && String.lowercase_ascii (String.sub body 0 (String.length prefix))
        = prefix
  then
    let v =
      String.sub body (String.length prefix)
        (String.length body - String.length prefix)
      |> String.trim
    in
    if v = "" then None else Some v
  else None

(* The scanner reads fields as [start, stop) ranges of the text, in
   place. Each field reader has a fast path for the plain spelling
   every sampler prints (digits, hex digits, R/W) that cannot overflow,
   and hands anything else to the string reader above on a copy of the
   field, so every accepted input and every value is exactly the
   string readers'. The helpers are top-level functions of their
   arguments, so a line allocates nothing but its sample; only the
   slow paths and errors build strings and options. *)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec digits_from text i b ~base acc =
  if i = b then acc
  else
    let d =
      match String.unsafe_get text i with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> base
    in
    if d >= base then -1 else digits_from text (i + 1) b ~base ((acc * base) + d)

(* Digits of text.[a, b) in [base] (10 or 16) as an int, or -1 when
   there are none, more than [max_len], or another character. *)
let digits text a b ~base ~max_len =
  if b <= a || b - a > max_len then -1 else digits_from text a b ~base 0

let sub text a b = String.sub text a (b - a)

(* First index of [c] in text.[a, b), or [b]. *)
let rec index_in text a b c =
  if a = b || String.unsafe_get text a = c then a else index_in text (a + 1) b c

let rec all_decimal text a b =
  a = b
  || (text.[a] >= '0' && text.[a] <= '9' && all_decimal text (a + 1) b)

let is_prefixed_hex text a b =
  b - a > 1 && text.[a] = '0' && (text.[a + 1] = 'x' || text.[a + 1] = 'X')

(* The plain spelling of a timestamp, "SECONDS[.FRACTION]", in
   microseconds, or -1 when the field needs the string reader. At most
   12 whole digits keep w * 1_000_000 below max_int. *)
let seconds_fast text a b =
  let dot = index_in text a b '.' in
  let w = if dot = a then 0 else digits text a dot ~base:10 ~max_len:12 in
  if w >= 0 && (dot = b || all_decimal text (dot + 1) b) then begin
    let f = ref 0 in
    for i = dot + 1 to dot + 6 do
      f := (!f * 10) + (if i < b then Char.code text.[i] - 48 else 0)
    done;
    (w * 1_000_000) + !f
  end
  else -1

let kind_field text a b =
  if b - a = 1 then
    match text.[a] with
    | 'R' | 'r' -> Some Access.Read
    | 'W' | 'w' -> Some Access.Write
    | _ -> None
  else kind_of_string (sub text a b)

(* An address, or -1 (every accepted address is non-negative). 18
   decimal or 15 hex digits stay below max_int. *)
let addr_field text a b =
  let v =
    if is_prefixed_hex text a b then digits text (a + 2) b ~base:16 ~max_len:15
    else digits text a b ~base:10 ~max_len:18
  in
  if v >= 0 then v
  else match addr_of_string (sub text a b) with Some v -> v | None -> -1

let hex_addr_field text a b =
  let v =
    if is_prefixed_hex text a b then digits text (a + 2) b ~base:16 ~max_len:15
    else digits text a b ~base:16 ~max_len:15
  in
  if v >= 0 then v
  else match hex_addr_of_string (sub text a b) with Some v -> v | None -> -1

let is_int_field text a b =
  digits text a b ~base:10 ~max_len:18 >= 0
  || int_of_string_opt (sub text a b) <> None

let max_fields = 6

let parse_text ~name text =
  let len = String.length text in
  (* Start and stop of the first [max_fields] fields of the line. *)
  let fs = Array.make (2 * max_fields) 0 in
  let name = ref name and acc = ref [] and prev = ref 0 in
  let error = ref None in
  let start = ref 0 and lineno = ref 1 and more = ref true in
  while !more do
    let stop = index_in text !start len '\n' in
    let ls = ref !start and le = ref stop in
    while !ls < !le && is_space text.[!ls] do incr ls done;
    while !le > !ls && is_space text.[!le - 1] do decr le done;
    let ls = !ls and le = !le in
    if ls = le then ()
    else if text.[ls] = '#' then begin
      match name_directive (sub text ls le) with
      | Some n -> name := n
      | None -> ()
    end
    else begin
      (* Fields: maximal runs of characters other than space and tab. *)
      let nf = ref 0 and i = ref ls in
      while !i < le do
        while !i < le && (text.[!i] = ' ' || text.[!i] = '\t') do incr i done;
        if !i < le then begin
          let a = !i in
          while !i < le && text.[!i] <> ' ' && text.[!i] <> '\t' do incr i done;
          if !nf < max_fields then begin
            fs.(2 * !nf) <- a;
            fs.((2 * !nf) + 1) <- !i
          end;
          incr nf
        end
      done;
      let nf = !nf in
      let perf_base =
        if nf = 5 && is_int_field text fs.(2) fs.(3) then 2
        else if
          nf = 6
          && is_int_field text fs.(2) fs.(3)
          && fs.(5) - fs.(4) >= 2
          && text.[fs.(4)] = '['
          && text.[fs.(5) - 1] = ']'
        then 3
        else -1
      in
      let lineno = !lineno in
      if nf <> 3 && perf_base < 0 then
        error :=
          Some
            (Printf.sprintf
               "line %d: expected 3 fields or perf script \
                comm/pid/time/event/addr columns, got %d fields"
               lineno nf)
      else begin
        (* Ranges of the time, kind and address fields; a perf line drops
           the timestamp's trailing colon and the event's suffixes. *)
        let perf = nf <> 3 in
        let tf = if perf then perf_base else 0 in
        let ta = fs.(2 * tf) and tb = fs.((2 * tf) + 1) in
        let tb = if perf && text.[tb - 1] = ':' then tb - 1 else tb in
        let ka = fs.((2 * tf) + 2) and kb = fs.((2 * tf) + 3) in
        let kb = if perf then index_in text ka kb ':' else kb in
        let aa = fs.((2 * tf) + 4) and ab = fs.((2 * tf) + 5) in
        let t_us = ref (seconds_fast text ta tb) and t_ok = ref true in
        if !t_us < 0 then begin
          match us_of_seconds_string (sub text ta tb) with
          | Some t -> t_us := t
          | None -> t_ok := false
        end;
        if not !t_ok then
          error :=
            Some
              (Printf.sprintf "line %d: bad timestamp %S" lineno (sub text ta tb))
        else
          match kind_field text ka kb with
          | None ->
            error :=
              Some
                (Printf.sprintf
                   "line %d: bad access kind %S (want R|W|load|store)" lineno
                   (sub text ka kb))
          | Some kind ->
            let addr =
              if perf then hex_addr_field text aa ab else addr_field text aa ab
            in
            if addr < 0 then
              error :=
                Some
                  (Printf.sprintf "line %d: bad address %S" lineno
                     (sub text aa ab))
            else if !t_us < !prev then
              error :=
                Some (Printf.sprintf "line %d: timestamp goes backwards" lineno)
            else begin
              acc := { t_us = !t_us; kind; addr } :: !acc;
              prev := !t_us
            end
      end
    end;
    if Option.is_some !error || stop = len then more := false
    else begin
      start := stop + 1;
      incr lineno
    end
  done;
  match !error with
  | Some e -> Error e
  | None -> Ok { name = !name; samples = List.rev !acc }

let parse ?(obs = Tdfa_obs.Obs.null) ?(name = "trace") text =
  Tdfa_obs.Obs.span obs "trace.parse"
    ~args:[ ("bytes", Tdfa_obs.Obs.Int (String.length text)) ]
    (fun () -> parse_text ~name text)

let of_file ?obs path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      let name = Filename.remove_extension (Filename.basename path) in
      parse ?obs ~name text
  | exception Sys_error msg -> Error msg

let print t =
  let buf = Buffer.create (256 + (List.length t.samples * 24)) in
  Buffer.add_string buf "# tdfa trace v1\n";
  Buffer.add_string buf (Printf.sprintf "# name: %s\n" t.name);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%d.%06d %s 0x%x\n" (s.t_us / 1_000_000)
           (s.t_us mod 1_000_000)
           (match s.kind with Access.Read -> "R" | Access.Write -> "W")
           s.addr))
    t.samples;
  Buffer.contents buf
