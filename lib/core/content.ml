let encode v = Marshal.to_string v [ Marshal.No_sharing ]
let digest v = Digest.to_hex (Digest.string (encode v))

let outcome o =
  let info = Analysis.info o in
  let slots = info.Analysis.slots in
  digest
    ( Analysis.converged o,
      info.Analysis.iterations,
      info.Analysis.final_delta_k,
      (slots.Flat_core.blocks, slots.Flat_core.first),
      info.Analysis.states,
      info.Analysis.exits,
      info.Analysis.unstable )
