let encode v = Marshal.to_string v [ Marshal.No_sharing ]
let digest v = Digest.to_hex (Digest.string (encode v))

let outcome o =
  let info = Analysis.info o in
  digest
    ( Analysis.converged o,
      info.Analysis.iterations,
      info.Analysis.final_delta_k,
      Analysis.sorted_states info,
      Tdfa_ir.Label.Map.bindings info.Analysis.exit_states,
      info.Analysis.unstable )
