exception Error of string

type token =
  | Tid of string
  | Tvar of string
  | Tat of string
  | Tint of int
  | Tlparen
  | Trparen
  | Tlbrace
  | Trbrace
  | Tcomma
  | Teq
  | Tcolon

let string_of_token = function
  | Tid s -> s
  | Tvar s -> "%" ^ s
  | Tat s -> "@" ^ s
  | Tint k -> string_of_int k
  | Tlparen -> "("
  | Trparen -> ")"
  | Tlbrace -> "{"
  | Trbrace -> "}"
  | Tcomma -> ","
  | Teq -> "="
  | Tcolon -> ":"

let is_id_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

(* Tokens are paired with their source line for error messages. *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let push t = tokens := (t, !line) :: !tokens in
  let rec scan i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = '\n' then begin
        incr line;
        scan (i + 1)
      end
      else if c = ' ' || c = '\t' || c = '\r' then scan (i + 1)
      else if c = '#' then begin
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        scan (skip i)
      end
      else if c = '(' then (push Tlparen; scan (i + 1))
      else if c = ')' then (push Trparen; scan (i + 1))
      else if c = '{' then (push Tlbrace; scan (i + 1))
      else if c = '}' then (push Trbrace; scan (i + 1))
      else if c = ',' then (push Tcomma; scan (i + 1))
      else if c = '=' then (push Teq; scan (i + 1))
      else if c = ':' then (push Tcolon; scan (i + 1))
      else if c = '%' || c = '@' then begin
        let rec stop j = if j < n && is_id_char src.[j] then stop (j + 1) else j in
        let j = stop (i + 1) in
        if j = i + 1 then
          raise (Error (Printf.sprintf "line %d: empty name after '%c'" !line c));
        let name = String.sub src (i + 1) (j - i - 1) in
        push (if c = '%' then Tvar name else Tat name);
        scan j
      end
      else if c = '-' || (c >= '0' && c <= '9') then begin
        let rec stop j =
          if j < n && src.[j] >= '0' && src.[j] <= '9' then stop (j + 1) else j
        in
        let j = stop (i + 1) in
        let s = String.sub src i (j - i) in
        (match int_of_string_opt s with
         | Some k -> push (Tint k)
         | None -> raise (Error (Printf.sprintf "line %d: bad integer %s" !line s)));
        scan j
      end
      else if is_id_char c then begin
        let rec stop j = if j < n && is_id_char src.[j] then stop (j + 1) else j in
        let j = stop i in
        push (Tid (String.sub src i (j - i)));
        scan j
      end
      else raise (Error (Printf.sprintf "line %d: unexpected character '%c'" !line c))
  in
  scan 0;
  List.rev !tokens

(* Recursive-descent over the token list. *)
type state = { mutable toks : (token * int) list }

let fail_at line msg = raise (Error (Printf.sprintf "line %d: %s" line msg))

let peek st = match st.toks with [] -> None | (t, l) :: _ -> Some (t, l)

let next st =
  match st.toks with
  | [] -> raise (Error "unexpected end of input")
  | (t, l) :: rest ->
    st.toks <- rest;
    (t, l)

let expect st want =
  let t, l = next st in
  if t <> want then
    fail_at l
      (Printf.sprintf "expected '%s' but found '%s'" (string_of_token want)
         (string_of_token t))

let expect_id st =
  match next st with
  | Tid s, _ -> s
  | t, l -> fail_at l (Printf.sprintf "expected identifier, found '%s'" (string_of_token t))

let expect_var st =
  match next st with
  | Tvar s, _ -> Var.of_string s
  | t, l -> fail_at l (Printf.sprintf "expected %%var, found '%s'" (string_of_token t))

let expect_int st =
  match next st with
  | Tint k, _ -> k
  | t, l -> fail_at l (Printf.sprintf "expected integer, found '%s'" (string_of_token t))

let expect_at st =
  match next st with
  | Tat s, _ -> s
  | t, l -> fail_at l (Printf.sprintf "expected @name, found '%s'" (string_of_token t))

let parse_args st =
  expect st Tlparen;
  let rec loop acc =
    match peek st with
    | Some (Trparen, _) ->
      ignore (next st);
      List.rev acc
    | _ ->
      let v = expect_var st in
      (match peek st with
       | Some (Tcomma, _) ->
         ignore (next st);
         loop (v :: acc)
       | _ ->
         expect st Trparen;
         List.rev (v :: acc))
  in
  loop []

let parse_call st dst =
  let callee = expect_at st in
  let args = parse_args st in
  Instr.Call (dst, callee, args)

(* An instruction or terminator beginning with a keyword identifier. *)
let parse_keyword_line st kw line =
  match kw with
  | "store" ->
    let v = expect_var st in
    expect st Tcomma;
    let base = expect_var st in
    expect st Tcomma;
    let off = expect_int st in
    `Instr (Instr.Store (v, base, off))
  | "call" -> `Instr (parse_call st None)
  | "nop" -> `Instr Instr.Nop
  | "jmp" -> `Term (Block.Jump (Label.of_string (expect_id st)))
  | "br" ->
    let c = expect_var st in
    expect st Tcomma;
    let t = Label.of_string (expect_id st) in
    expect st Tcomma;
    let f = Label.of_string (expect_id st) in
    `Term (Block.Branch (c, t, f))
  | "ret" ->
    (match peek st with
     | Some (Tvar _, _) -> `Term (Block.Return (Some (expect_var st)))
     | _ -> `Term (Block.Return None))
  | other -> fail_at line (Printf.sprintf "unknown instruction '%s'" other)

(* After "%d =": const/load/call/unop/binop. *)
let parse_assign st dst line =
  let op = expect_id st in
  if String.equal op "const" then Instr.Const (dst, expect_int st)
  else if String.equal op "load" then begin
    let base = expect_var st in
    expect st Tcomma;
    let off = expect_int st in
    Instr.Load (dst, base, off)
  end
  else if String.equal op "call" then parse_call st (Some dst)
  else
    match Instr.unop_of_string op with
    | Some u -> Instr.Unop (u, dst, expect_var st)
    | None ->
      (match Instr.binop_of_string op with
       | Some b ->
         let s1 = expect_var st in
         expect st Tcomma;
         let s2 = expect_var st in
         Instr.Binop (b, dst, s1, s2)
       | None -> fail_at line (Printf.sprintf "unknown operation '%s'" op))

let parse_block st first_label =
  let rec body acc =
    match next st with
    | Tvar d, _ ->
      expect st Teq;
      let line = match peek st with Some (_, l) -> l | None -> 0 in
      body (parse_assign st (Var.of_string d) line :: acc)
    | Tid kw, line ->
      (match parse_keyword_line st kw line with
       | `Instr i -> body (i :: acc)
       | `Term t -> (List.rev acc, t))
    | t, l ->
      fail_at l
        (Printf.sprintf "expected instruction, found '%s'" (string_of_token t))
  in
  let instrs, term = body [] in
  Block.make first_label instrs term

let parse_blocks st =
  let rec loop acc =
    match peek st with
    | Some (Trbrace, _) ->
      ignore (next st);
      List.rev acc
    | Some (Tid name, _) ->
      ignore (next st);
      expect st Tcolon;
      loop (parse_block st (Label.of_string name) :: acc)
    | Some (t, l) ->
      fail_at l
        (Printf.sprintf "expected block label or '}', found '%s'" (string_of_token t))
    | None -> raise (Error "unexpected end of input inside function")
  in
  loop []

let parse_one_func st =
  let line =
    match next st with
    | Tid "func", l -> l
    | t, l ->
      fail_at l
        (Printf.sprintf "expected 'func', found '%s'" (string_of_token t))
  in
  let name = expect_at st in
  let params = parse_args st in
  expect st Tlbrace;
  let blocks = parse_blocks st in
  if blocks = [] then
    fail_at line (Printf.sprintf "function @%s has no blocks" name);
  try Func.make ~name ~params blocks
  with Invalid_argument msg -> fail_at line msg

let parse_program src =
  let st = { toks = tokenize src } in
  let rec loop acc =
    match peek st with
    | None -> List.rev acc
    | Some _ -> loop (parse_one_func st :: acc)
  in
  let funcs = loop [] in
  if funcs = [] then raise (Error "no functions in input");
  try Program.of_funcs funcs with Invalid_argument msg -> raise (Error msg)

let parse_func src =
  let p = parse_program src in
  match Program.funcs p with
  | [ f ] -> f
  | fs -> raise (Error (Printf.sprintf "expected one function, found %d" (List.length fs)))
