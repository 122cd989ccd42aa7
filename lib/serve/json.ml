(* The codec lives in [Tdfa_obs.Json], below every emitter; this alias
   keeps [Tdfa_serve.Json] working for the protocol's callers. *)

include Tdfa_obs.Json
