type t = int array

let width = 63
let words n = (n + width - 1) / width
let create n = Array.make (words n) 0

let full n =
  let s = create n in
  for w = 0 to Array.length s - 1 do
    let k = min width (n - (w * width)) in
    s.(w) <- (if k = width then -1 else (1 lsl k) - 1)
  done;
  s

let mem s i = s.(i / width) land (1 lsl (i mod width)) <> 0

let add s i =
  let w = i / width in
  s.(w) <- s.(w) lor (1 lsl (i mod width))

let remove s i =
  let w = i / width in
  s.(w) <- s.(w) land lnot (1 lsl (i mod width))

let clear s = Array.fill s 0 (Array.length s) 0

let union_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let inter_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) land src.(w)
  done

let cardinal s =
  let c = ref 0 in
  for w = 0 to Array.length s - 1 do
    let x = ref s.(w) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr c
    done
  done;
  !c

(* Index of the lowest set bit of a non-zero word. *)
let lowest x =
  let x = ref (x land - x) and n = ref 0 in
  if !x land 0xFFFF_FFFF = 0 then (n := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr n;
  !n

let iter f s =
  for w = 0 to Array.length s - 1 do
    let x = ref s.(w) in
    while !x <> 0 do
      f ((w * width) + lowest !x);
      x := !x land (!x - 1)
    done
  done
