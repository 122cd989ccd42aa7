(* Reference JSON reader: the parsing half of [Tdfa_obs.Json] as it was
   when [parse_string] decoded one byte at a time — a [Some c] and a
   [Buffer.add_char] per plain byte. Kept as the differential oracle for
   the run-copying reader (test_serve.ml): on every input both must
   return the same value or the same error text, byte offset included. *)

open Tdfa_obs.Json

exception Parse_error of string

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

let parse_string st =
  expect st '"';
  let buf = Buffer.create 32 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
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
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

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
