let encode v = Marshal.to_string v [ Marshal.No_sharing ]
let digest v = Digest.to_hex (Digest.string (encode v))

(* Every NaN as the one [Float.nan]: which payload a NaN carries depends
   on operand order, which neither OCaml nor C fixes. Copies only when a
   NaN is present, so a NaN-free array is hashed as it is. *)
let canonical_nan x = if Float.is_nan x then Float.nan else x

let canonical_nans (a : float array) =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && not (Float.is_nan a.(!i)) do
    incr i
  done;
  if !i < n then Array.map canonical_nan a else a

let outcome o =
  let info = Analysis.info o in
  let slots = info.Analysis.slots in
  digest
    ( Analysis.converged o,
      info.Analysis.iterations,
      canonical_nan info.Analysis.final_delta_k,
      (slots.Flat_core.blocks, slots.Flat_core.first),
      canonical_nans info.Analysis.states,
      canonical_nans info.Analysis.exits,
      info.Analysis.unstable )
