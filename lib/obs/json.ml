(* The project's one JSON codec: a recursive-descent reader and a
   printer with two layouts. Compact output never contains a raw
   newline, so a printed value is always a valid serve protocol frame;
   indented output is the layout of the SARIF log and the BENCH_*.json
   files. No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if not (Float.is_finite f) then
    (* JSON has no infinities or NaN: an unbounded or undefined value is
       null, so every artifact stays parseable. *)
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e17 then
    (* Exact, and the ".0" keeps it a float when read back. *)
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

(* [indented]: every element of a non-empty array or object on its own
   line, two spaces per level, ["key": value]. *)
let add_seq buf ~indented depth opening closing item l =
  let newline d =
    if indented then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * d) ' ')
    end
  in
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      newline (depth + 1);
      item x)
    l;
  if not (List.is_empty l) then newline depth;
  Buffer.add_char buf closing

let rec emit buf ~indented depth = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> add_string buf s
  | List l ->
    add_seq buf ~indented depth '[' ']' (emit buf ~indented (depth + 1)) l
  | Obj fields ->
    add_seq buf ~indented depth '{' '}'
      (fun (k, v) ->
        add_string buf k;
        Buffer.add_string buf (if indented then ": " else ":");
        emit buf ~indented (depth + 1) v)
      fields

let print ~indented v =
  let buf = Buffer.create 256 in
  emit buf ~indented 0 v;
  Buffer.contents buf

let to_string v = print ~indented:false v
let to_string_indented v = print ~indented:true v

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c, got %c" c c')
  | None -> fail st (Printf.sprintf "expected %c, got end of input" c)

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected %s" word)

(* Four hex digits after a [\u]. *)
let hex4 st =
  let digit i =
    match st.src.[st.pos + i] with
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | 'A' .. 'F' as c -> Char.code c - 55
    | _ -> fail st "bad \\u escape"
  in
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let u = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
  st.pos <- st.pos + 4;
  u

(* One [\uXXXX] escape (the [\u] already consumed), UTF-8-encoded. A
   surrogate pair decodes to its code point; a lone surrogate becomes
   U+FFFD. *)
let add_escaped_code st buf =
  let u = hex4 st in
  let u =
    if
      u >= 0xd800 && u <= 0xdbff
      && st.pos + 6 <= String.length st.src
      && String.sub st.src st.pos 2 = "\\u"
    then begin
      let save = st.pos in
      st.pos <- st.pos + 2;
      let lo = hex4 st in
      if lo >= 0xdc00 && lo <= 0xdfff then
        0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
      else begin
        st.pos <- save;
        u
      end
    end
    else u
  in
  Buffer.add_utf_8_uchar buf
    (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)

(* End of the run of plain bytes of [src] from [i]: the first quote or
   backslash at or after [i], or [len]. *)
let rec plain_end src len i =
  if i = len then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' -> i
    | _ -> plain_end src len (i + 1)

(* A string without escapes is one [String.sub]; otherwise each run of
   plain bytes is copied whole and only the escapes are decoded. *)
let parse_string st =
  expect st '"';
  let src = st.src in
  let len = String.length src in
  let start = st.pos in
  let stop = plain_end src len start in
  if stop < len && src.[stop] = '"' then begin
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create 32 in
    let rec go start stop =
      Buffer.add_substring buf src start (stop - start);
      st.pos <- stop;
      if stop = len then fail st "unterminated string"
      else if src.[stop] = '"' then advance st
      else begin
        advance st;
        if st.pos = len then fail st "unterminated escape";
        let c = src.[st.pos] in
        advance st;
        (match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' -> add_escaped_code st buf
         | c -> fail st (Printf.sprintf "bad escape \\%c" c));
        go st.pos (plain_end src len st.pos)
      end
    in
    go start stop;
    Buffer.contents buf
  end

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek st with Some c when is_num_char c -> true | _ -> false
  do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad number %S" s))

(* Deeper nesting is rejected rather than risking the stack: no frame
   or artifact comes near it. *)
let max_depth = 512

let rec parse_value st depth =
  if depth >= max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected , or ] in array"
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields (kv :: acc)
        | Some '}' ->
          advance st;
          List.rev (kv :: acc)
        | _ -> fail st "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error "trailing garbage after value"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let str_member k v = Option.bind (member k v) to_str
let int_member k v = Option.bind (member k v) to_int
let float_member k v = Option.bind (member k v) to_float
let bool_member k v = Option.bind (member k v) to_bool
