open Tdfa_ir
open Tdfa_obs

type prior = {
  p_key : string;
  p_outcome : Analysis.outcome;
  p_digest : string;
      (* [Content.outcome] of [p_outcome], taken when the prior was
         made; [analyze] revalidates before reuse so a corrupted result
         degrades to a cold run, never to garbage *)
}

type mode = Cold | Identity | Corrupt_recording

let mode_name = function
  | Cold -> "cold"
  | Identity -> "identity"
  | Corrupt_recording -> "fallback:corrupt-recording"

type result = { outcome : Analysis.outcome; prior : prior; mode : mode }

let prior_intact p = String.equal p.p_digest (Content.outcome p.p_outcome)

(* Deterministic single-state corruption, for the fault-injection
   batteries: one per-instruction state gains +1 K at one point. When
   the outcome carries no state at all, the digest itself is clobbered
   so the poison is still detectable. *)
let poison_prior ~seed p =
  let info = Analysis.info p.p_outcome in
  let n = Thermal_state.num_points info.Analysis.initial in
  let rows = Array.length info.Analysis.states / n in
  if rows = 0 then { p with p_digest = "" }
  else
    let states = Array.copy info.Analysis.states in
    let i = (abs seed mod rows * n) + (abs (seed / 13) mod n) in
    states.(i) <- states.(i) +. 1.0;
    let info = { info with Analysis.states } in
    let p_outcome =
      match p.p_outcome with
      | Analysis.Converged _ -> Analysis.Converged info
      | Analysis.Diverged _ -> Analysis.Diverged info
    in
    { p with p_outcome }

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

(* The signature covers everything the analysis reads from a block: its
   instructions and terminator (which fix the successor edges, hence
   RPO, predecessors and joins), the block's execution frequency (the
   heating duty cycle) and the exact access events of every instruction
   and of the terminator under the given assignment, in the canonical
   [Content] encoding — kept as bytes, since comparing them directly is
   cheaper than digesting them first. *)
let block_signature (cfg : Transfer.config) (block : Block.t) =
  let label = block.Block.label in
  Content.encode
    ( block,
      cfg.Transfer.block_frequency label,
      Array.mapi (cfg.Transfer.accesses_of_instr label) block.Block.body,
      cfg.Transfer.accesses_of_term label block.Block.term )

let func_signature cfg func =
  List.fold_left
    (fun acc (b : Block.t) ->
      Label.Map.add b.Block.label (block_signature cfg b) acc)
    Label.Map.empty func.Func.blocks

(* The reuse key: the solver settings, the global configuration inputs
   no block signature sees, the entry label and every (label, block
   signature) pair in label order — so a permuted block list keeps its
   key, and any edit, added or removed block, or changed setting moves
   it. *)
let key ~settings (cfg : Transfer.config) func =
  Content.encode
    ( settings,
      ( cfg.Transfer.params,
        cfg.Transfer.layout,
        cfg.Transfer.granularity,
        cfg.Transfer.analysis_dt_s,
        cfg.Transfer.max_frequency ),
      Func.entry_label func,
      Label.Map.bindings (func_signature cfg func) )

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let analyze ?(obs = Obs.null) ?cancel ?(settings = Analysis.default_settings)
    ?core ?prior (cfg : Transfer.config) func =
  Obs.span obs "incremental.analyze"
    ~args:[ ("func", Obs.Str func.Func.name) ]
    (fun () ->
      let p_key = key ~settings cfg func in
      let run mode counter =
        Obs.incr obs counter;
        let outcome =
          Analysis.fixpoint ~obs ?cancel ~settings ?core cfg func
        in
        let p_digest = Content.outcome outcome in
        { outcome; prior = { p_key; p_outcome = outcome; p_digest }; mode }
      in
      let result =
        match prior with
        | Some p when not (prior_intact p) ->
          run Corrupt_recording "incremental.fallbacks"
        | Some p when String.equal p.p_key p_key ->
          Obs.incr obs "incremental.warm_hits";
          { outcome = p.p_outcome; prior = p; mode = Identity }
        | _ -> run Cold "incremental.cold_runs"
      in
      Obs.instant obs "incremental.mode"
        ~args:[ ("mode", Obs.Str (mode_name result.mode)) ];
      result)
