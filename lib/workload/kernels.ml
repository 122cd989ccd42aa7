open Tdfa_ir
module B = Builder

(* Counted loop scaffold recognised by the trip-count estimator:
   i = 0; while (i < count) { body; i += 1 }. Returns the induction
   variable; leaves the exit block open. *)
let counted_loop b ~count body =
  let i = B.const b 0 in
  let bound = B.const b count in
  let one = B.const b 1 in
  let header = B.fresh_label b "hdr" in
  let lbody = B.fresh_label b "body" in
  let lexit = B.fresh_label b "exit" in
  B.jump b header;
  B.start_block b header;
  let c = B.binop b Instr.Slt i bound in
  B.branch b c lbody lexit;
  B.start_block b lbody;
  body i;
  B.emit b (Instr.Binop (Instr.Add, i, i, one));
  B.jump b header;
  B.start_block b lexit;
  i

(* Accumulate into a fixed variable: acc <- acc op x. *)
let accumulate b op acc x = B.emit b (Instr.Binop (op, acc, acc, x))

let matmul ?(n = 8) () =
  let b = B.create ~name:"matmul" ~params:[] in
  let base_a = B.const b 0 in
  let base_b = B.const b 1000 in
  let base_c = B.const b 2000 in
  let nv = B.const b n in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let (_ : Var.t) =
          counted_loop b ~count:n (fun j ->
              let acc = B.const b 0 in
              let (_ : Var.t) =
                counted_loop b ~count:n (fun k ->
                    let row_a = B.binop b Instr.Mul i nv in
                    let idx_a = B.binop b Instr.Add row_a k in
                    let addr_a = B.binop b Instr.Add base_a idx_a in
                    let va = B.load b ~base:addr_a 0 in
                    let row_b = B.binop b Instr.Mul k nv in
                    let idx_b = B.binop b Instr.Add row_b j in
                    let addr_b = B.binop b Instr.Add base_b idx_b in
                    let vb = B.load b ~base:addr_b 0 in
                    let prod = B.binop b Instr.Mul va vb in
                    accumulate b Instr.Add acc prod)
              in
              let row_c = B.binop b Instr.Mul i nv in
              let idx_c = B.binop b Instr.Add row_c j in
              let addr_c = B.binop b Instr.Add base_c idx_c in
              B.store b ~value:acc ~base:addr_c 0)
        in
        ())
  in
  B.ret b None;
  B.finish b

let fir ?(n = 64) ?(taps = 8) () =
  let b = B.create ~name:"fir" ~params:[] in
  let base_x = B.const b 0 in
  let base_y = B.const b 4000 in
  let base_coef = B.const b 3000 in
  let coefs = List.init taps (fun t -> B.load b ~base:base_coef t) in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let addr_x = B.binop b Instr.Add base_x i in
        let acc = B.const b 0 in
        List.iteri
          (fun t coef ->
            let x = B.load b ~base:addr_x t in
            let prod = B.binop b Instr.Mul x coef in
            accumulate b Instr.Add acc prod)
          coefs;
        let addr_y = B.binop b Instr.Add base_y i in
        B.store b ~value:acc ~base:addr_y 0)
  in
  B.ret b None;
  B.finish b

let idct_row ?(rows = 8) () =
  let b = B.create ~name:"idct_row" ~params:[] in
  let base = B.const b 0 in
  let eight = B.const b 8 in
  let c1 = B.const b 1004 in
  let c2 = B.const b 946 in
  let c3 = B.const b 851 in
  let shift = B.const b 10 in
  let (_ : Var.t) =
    counted_loop b ~count:rows (fun r ->
        let off = B.binop b Instr.Mul r eight in
        let row = B.binop b Instr.Add base off in
        let v = Array.init 8 (fun k -> B.load b ~base:row k) in
        let s0 = B.binop b Instr.Add v.(0) v.(7) in
        let s1 = B.binop b Instr.Add v.(1) v.(6) in
        let s2 = B.binop b Instr.Add v.(2) v.(5) in
        let s3 = B.binop b Instr.Add v.(3) v.(4) in
        let d0 = B.binop b Instr.Sub v.(0) v.(7) in
        let d1 = B.binop b Instr.Sub v.(1) v.(6) in
        let d2 = B.binop b Instr.Sub v.(2) v.(5) in
        let d3 = B.binop b Instr.Sub v.(3) v.(4) in
        let scale x c =
          let m = B.binop b Instr.Mul x c in
          B.binop b Instr.Shr m shift
        in
        let e0 = B.binop b Instr.Add s0 s3 in
        let e1 = B.binop b Instr.Add s1 s2 in
        let e2 = B.binop b Instr.Sub s0 s3 in
        let e3 = B.binop b Instr.Sub s1 s2 in
        let o0 = scale d0 c1 in
        let o1 = scale d1 c2 in
        let o2 = scale d2 c3 in
        let o3 = scale d3 c1 in
        let out =
          [|
            B.binop b Instr.Add e0 e1;
            B.binop b Instr.Add e2 (scale e3 c2);
            B.binop b Instr.Add o0 o1;
            B.binop b Instr.Sub o2 o3;
            B.binop b Instr.Sub e0 e1;
            B.binop b Instr.Sub e2 (scale e3 c3);
            B.binop b Instr.Sub o0 o3;
            B.binop b Instr.Add o1 o2;
          |]
        in
        Array.iteri (fun k x -> B.store b ~value:x ~base:row k) out)
  in
  B.ret b None;
  B.finish b

let crc ?(bytes = 32) () =
  let b = B.create ~name:"crc" ~params:[] in
  let base = B.const b 0 in
  let crc = B.const b 0xFFFF in
  let one = B.const b 1 in
  let poly = B.const b 0xA001 in
  let (_ : Var.t) =
    counted_loop b ~count:bytes (fun i ->
        let addr = B.binop b Instr.Add base i in
        let byte = B.load b ~base:addr 0 in
        accumulate b Instr.Xor crc byte;
        let (_ : Var.t) =
          counted_loop b ~count:8 (fun _ ->
              let lsb = B.binop b Instr.And crc one in
              let shifted = B.binop b Instr.Shr crc one in
              let masked = B.binop b Instr.Mul poly lsb in
              let next = B.binop b Instr.Xor shifted masked in
              B.emit b (Instr.Unop (Instr.Mov, crc, next)))
        in
        ())
  in
  let out = B.const b 5000 in
  B.store b ~value:crc ~base:out 0;
  B.ret b (Some crc);
  B.finish b

let stencil ?(n = 8) () =
  let b = B.create ~name:"stencil" ~params:[] in
  let base_in = B.const b 0 in
  let base_out = B.const b 2000 in
  let nv = B.const b n in
  let one = B.const b 1 in
  let five = B.const b 5 in
  let inner = max 1 (n - 2) in
  let (_ : Var.t) =
    counted_loop b ~count:inner (fun i0 ->
        let (_ : Var.t) =
          counted_loop b ~count:inner (fun j0 ->
              let i = B.binop b Instr.Add i0 one in
              let j = B.binop b Instr.Add j0 one in
              let row = B.binop b Instr.Mul i nv in
              let idx = B.binop b Instr.Add row j in
              let addr = B.binop b Instr.Add base_in idx in
              let center = B.load b ~base:addr 0 in
              let up = B.load b ~base:addr (-n) in
              let down = B.load b ~base:addr n in
              let left = B.load b ~base:addr (-1) in
              let right = B.load b ~base:addr 1 in
              let s1 = B.binop b Instr.Add center up in
              let s2 = B.binop b Instr.Add s1 down in
              let s3 = B.binop b Instr.Add s2 left in
              let s4 = B.binop b Instr.Add s3 right in
              let avg = B.binop b Instr.Div s4 five in
              let addr_out = B.binop b Instr.Add base_out idx in
              B.store b ~value:avg ~base:addr_out 0)
        in
        ())
  in
  B.ret b None;
  B.finish b

let bubble_sort ?(n = 16) () =
  let b = B.create ~name:"bubble_sort" ~params:[] in
  let base = B.const b 0 in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun _i ->
        let (_ : Var.t) =
          counted_loop b ~count:(n - 1) (fun j ->
              let addr = B.binop b Instr.Add base j in
              let a = B.load b ~base:addr 0 in
              let c = B.load b ~base:addr 1 in
              let gt = B.binop b Instr.Slt c a in
              let l_swap = B.fresh_label b "swap" in
              let l_cont = B.fresh_label b "cont" in
              B.branch b gt l_swap l_cont;
              B.start_block b l_swap;
              B.store b ~value:c ~base:addr 0;
              B.store b ~value:a ~base:addr 1;
              B.jump b l_cont;
              B.start_block b l_cont)
        in
        ())
  in
  B.ret b None;
  B.finish b

let fib ?(n = 30) () =
  let b = B.create ~name:"fib" ~params:[] in
  let x = B.const b 0 in
  let y = B.const b 1 in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun _ ->
        let t = B.binop b Instr.Add x y in
        B.emit b (Instr.Unop (Instr.Mov, x, y));
        B.emit b (Instr.Unop (Instr.Mov, y, t)))
  in
  let out = B.const b 5000 in
  B.store b ~value:x ~base:out 0;
  B.ret b (Some x);
  B.finish b

let dotprod ?(n = 64) () =
  let b = B.create ~name:"dotprod" ~params:[] in
  let base_x = B.const b 0 in
  let base_y = B.const b 1000 in
  let acc = B.const b 0 in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let ax = B.binop b Instr.Add base_x i in
        let ay = B.binop b Instr.Add base_y i in
        let x = B.load b ~base:ax 0 in
        let y = B.load b ~base:ay 0 in
        let prod = B.binop b Instr.Mul x y in
        accumulate b Instr.Add acc prod)
  in
  let out = B.const b 5000 in
  B.store b ~value:acc ~base:out 0;
  B.ret b (Some acc);
  B.finish b

let vecadd ?(n = 64) () =
  let b = B.create ~name:"vecadd" ~params:[] in
  let base_x = B.const b 0 in
  let base_y = B.const b 1000 in
  let base_z = B.const b 2000 in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let ax = B.binop b Instr.Add base_x i in
        let ay = B.binop b Instr.Add base_y i in
        let x = B.load b ~base:ax 0 in
        let y = B.load b ~base:ay 0 in
        let s = B.binop b Instr.Add x y in
        let az = B.binop b Instr.Add base_z i in
        B.store b ~value:s ~base:az 0)
  in
  B.ret b None;
  B.finish b

let horner ?(degree = 12) ?(n = 32) () =
  let b = B.create ~name:"horner" ~params:[] in
  let base_coef = B.const b 3000 in
  let base_x = B.const b 0 in
  let base_y = B.const b 4000 in
  let coefs = List.init (degree + 1) (fun k -> B.load b ~base:base_coef k) in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let ax = B.binop b Instr.Add base_x i in
        let x = B.load b ~base:ax 0 in
        match coefs with
        | [] -> assert false
        | highest :: rest ->
          let acc = B.mov b highest in
          List.iter
            (fun coef ->
              accumulate b Instr.Mul acc x;
              accumulate b Instr.Add acc coef)
            rest;
          let ay = B.binop b Instr.Add base_y i in
          B.store b ~value:acc ~base:ay 0)
  in
  B.ret b None;
  B.finish b

let scale ?(n = 64) () =
  (* y[i] = k * x[i], with the scale factor naively reloaded from memory
     every iteration — the canonical register-promotion target. *)
  let b = B.create ~name:"scale" ~params:[] in
  let base_k = B.const b 3000 in
  let base_x = B.const b 0 in
  let base_y = B.const b 4000 in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let k = B.load b ~base:base_k 0 in
        let ax = B.binop b Instr.Add base_x i in
        let x = B.load b ~base:ax 0 in
        let p = B.binop b Instr.Mul x k in
        let ay = B.binop b Instr.Add base_y i in
        B.store b ~value:p ~base:ay 0)
  in
  B.ret b None;
  B.finish b

let high_pressure ?(live = 24) ?(iters = 64) () =
  let b = B.create ~name:"high_pressure" ~params:[] in
  let vars = Array.init live (fun k -> B.const b (k + 1)) in
  let (_ : Var.t) =
    counted_loop b ~count:iters (fun _ ->
        Array.iteri
          (fun k v ->
            let next = vars.((k + 1) mod live) in
            B.emit b (Instr.Binop (Instr.Add, v, v, next)))
          vars)
  in
  let acc = B.const b 0 in
  Array.iter (fun v -> accumulate b Instr.Add acc v) vars;
  let out = B.const b 5000 in
  B.store b ~value:acc ~base:out 0;
  B.ret b (Some acc);
  B.finish b

let conv2d ?(n = 8) () =
  (* 3x3 convolution over an n x n image; the nine coefficients live in
     registers for the whole kernel. *)
  let b = B.create ~name:"conv2d" ~params:[] in
  let base_in = B.const b 0 in
  let base_out = B.const b 2000 in
  let base_coef = B.const b 3000 in
  let nv = B.const b n in
  let one = B.const b 1 in
  let coefs = Array.init 9 (fun k -> B.load b ~base:base_coef k) in
  let inner = max 1 (n - 2) in
  let (_ : Var.t) =
    counted_loop b ~count:inner (fun i0 ->
        let (_ : Var.t) =
          counted_loop b ~count:inner (fun j0 ->
              let i = B.binop b Instr.Add i0 one in
              let j = B.binop b Instr.Add j0 one in
              let row = B.binop b Instr.Mul i nv in
              let idx = B.binop b Instr.Add row j in
              let addr = B.binop b Instr.Add base_in idx in
              let acc = B.const b 0 in
              List.iteri
                (fun k off ->
                  let v = B.load b ~base:addr off in
                  let p = B.binop b Instr.Mul v coefs.(k) in
                  accumulate b Instr.Add acc p)
                [ -n - 1; -n; -n + 1; -1; 0; 1; n - 1; n; n + 1 ];
              let addr_out = B.binop b Instr.Add base_out idx in
              B.store b ~value:acc ~base:addr_out 0)
        in
        ())
  in
  B.ret b None;
  B.finish b

let histogram ?(n = 64) ?(bins = 16) () =
  (* Data-dependent addressing: bump bin[data[i] mod bins]. *)
  let b = B.create ~name:"histogram" ~params:[] in
  let base_data = B.const b 0 in
  let base_bins = B.const b 2000 in
  let binsv = B.const b bins in
  let one = B.const b 1 in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let addr = B.binop b Instr.Add base_data i in
        let v = B.load b ~base:addr 0 in
        let bin = B.binop b Instr.Rem v binsv in
        let baddr = B.binop b Instr.Add base_bins bin in
        let count = B.load b ~base:baddr 0 in
        let bumped = B.binop b Instr.Add count one in
        B.store b ~value:bumped ~base:baddr 0)
  in
  B.ret b None;
  B.finish b

let transpose ?(n = 8) () =
  let b = B.create ~name:"transpose" ~params:[] in
  let base_in = B.const b 0 in
  let base_out = B.const b 2000 in
  let nv = B.const b n in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let (_ : Var.t) =
          counted_loop b ~count:n (fun j ->
              let row = B.binop b Instr.Mul i nv in
              let idx = B.binop b Instr.Add row j in
              let addr = B.binop b Instr.Add base_in idx in
              let v = B.load b ~base:addr 0 in
              let row' = B.binop b Instr.Mul j nv in
              let idx' = B.binop b Instr.Add row' i in
              let addr' = B.binop b Instr.Add base_out idx' in
              B.store b ~value:v ~base:addr' 0)
        in
        ())
  in
  B.ret b None;
  B.finish b

let max_reduce ?(n = 64) () =
  (* Branchy reduction: per-element diamond, data-dependent control. *)
  let b = B.create ~name:"max_reduce" ~params:[] in
  let base = B.const b 0 in
  let best = B.const b min_int in
  let (_ : Var.t) =
    counted_loop b ~count:n (fun i ->
        let addr = B.binop b Instr.Add base i in
        let v = B.load b ~base:addr 0 in
        let gt = B.binop b Instr.Slt best v in
        let l_take = B.fresh_label b "take" in
        let l_skip = B.fresh_label b "skip" in
        B.branch b gt l_take l_skip;
        B.start_block b l_take;
        B.emit b (Instr.Unop (Instr.Mov, best, v));
        B.jump b l_skip;
        B.start_block b l_skip)
  in
  let out = B.const b 5000 in
  B.store b ~value:best ~base:out 0;
  B.ret b (Some best);
  B.finish b

(* Rename a function and prefix every variable, so that several kernels
   can live in one program without name collisions (execution traces
   identify accesses by variable name only). *)
let rename_with_prefix (f : Func.t) ~name ~prefix =
  let pv v = Var.of_string (prefix ^ Var.to_string v) in
  let rename_term = function
    | Block.Jump l -> Block.Jump l
    | Block.Branch (c, t, e) -> Block.Branch (pv c, t, e)
    | Block.Return (Some v) -> Block.Return (Some (pv v))
    | Block.Return None -> Block.Return None
  in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        Block.make b.Block.label
          (Array.to_list b.Block.body |> List.map (Instr.map_vars pv))
          (rename_term b.Block.term))
      f.Func.blocks
  in
  Func.make ~name ~params:(List.map pv f.Func.params) blocks

let multiproc_program () =
  let filter = rename_with_prefix (fir ~n:16 ~taps:4 ()) ~name:"filter" ~prefix:"f_" in
  let checksum = rename_with_prefix (crc ~bytes:16 ()) ~name:"checksum" ~prefix:"c_" in
  let b = B.create ~name:"main" ~params:[] in
  let (_ : Var.t) =
    counted_loop b ~count:4 (fun _ ->
        B.call_void b "filter" [];
        B.call_void b "checksum" [])
  in
  B.ret b None;
  Program.of_funcs [ B.finish b; filter; checksum ]

let all =
  [
    ("matmul", matmul ());
    ("fir", fir ());
    ("idct_row", idct_row ());
    ("crc", crc ());
    ("stencil", stencil ());
    ("bubble_sort", bubble_sort ());
    ("fib", fib ());
    ("dotprod", dotprod ());
    ("vecadd", vecadd ());
    ("scale", scale ());
    ("horner", horner ());
    ("conv2d", conv2d ());
    ("histogram", histogram ());
    ("transpose", transpose ());
    ("max_reduce", max_reduce ());
    ("high_pressure", high_pressure ());
  ]

let find name = List.assoc_opt name all

let lookup name =
  match find name with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "unknown kernel %s (try list-kernels)" name)

let lookup_list names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match lookup (String.trim name) with
      | Ok f -> go (f :: acc) rest
      | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' names)
