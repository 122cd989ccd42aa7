(* The traced per-layer run.

   Replays a workload's request stream in-process. Each request goes
   once through the full request path ([Server.handle_line] plus the
   reply encoding for the serve workloads, file parsing plus
   [Engine.run_batch] for the batch workload) — the traced request
   time — and then through each layer's public functions, called one
   by one on the same inputs and timed around the call. A layer's
   reported time is per request. Where a layer is known only by the
   calls it wraps ([Render.*], the incremental engine), its self time
   is its call time minus the inner layer calls.

   [layer_coverage] is the sum of the disjoint layer times over the
   traced request time: what it misses is work no layer accounts for
   (dispatch, session bookkeeping, response building). Exact counts
   (iterations, allocation words, spills, hit and decided ratios) are
   collected on two measured passes and must agree bit for bit. *)

open Tdfa_ir
open Tdfa_core
module Json = Tdfa_serve.Json
module Protocol = Tdfa_serve.Protocol
module Render = Tdfa_serve.Render
module Engine = Tdfa_engine.Engine
module Alloc = Tdfa_regalloc.Alloc

let layout = Oracle.layout
let policy = Tdfa_regalloc.Policy.First_fit
let cfg = Tdfa.Driver.default ~layout

(* ------------------------------------------------------------------ *)
(* Accumulators                                                         *)
(* ------------------------------------------------------------------ *)

(* Layer times in ms, summed over a pass; [exact] holds the counts that
   must repeat across passes. *)
type pass = {
  times : (string, float) Hashtbl.t;
  exact : (string, float) Hashtbl.t;
  mutable requests : int;
}

let new_pass () =
  { times = Hashtbl.create 32; exact = Hashtbl.create 8; requests = 0 }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let add p k ms = bump p.times k ms
let count p k v = bump p.exact k v

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* [time p layer f] runs [f], adds its time to [layer] and returns the
   result with the time. *)
let time p layer f =
  let r, ms = timed f in
  add p layer ms;
  (r, ms)

(* ------------------------------------------------------------------ *)
(* Shared layer calls                                                   *)
(* ------------------------------------------------------------------ *)

let allocate p f =
  let w0 = Gc.minor_words () in
  let a, ms = time p "regalloc.allocate_ms" (fun () -> Alloc.allocate f layout ~policy) in
  count p "regalloc.minor_mwords" ((Gc.minor_words () -. w0) /. 1e6);
  count p "regalloc.spilled"
    (float_of_int (Tdfa_ir.Var.Set.cardinal a.Alloc.spilled));
  (a, ms)

let transfer p (a : Alloc.result) =
  time p "core.transfer_ms" (fun () ->
      Tdfa.Driver.transfer_config cfg a.Alloc.func a.Alloc.assignment)

let fixpoint p tc func =
  let r, ms =
    time p "core.fixpoint_ms" (fun () ->
        Tdfa.Driver.run cfg (Tdfa.Driver.Configured (tc, func)))
  in
  let info = Analysis.info r.Tdfa.Driver.outcome in
  count p "core.fixpoint_iters" (float_of_int info.Analysis.iterations);
  (r, ms)

let frame p line reply =
  ignore
    (time p "serve.frame_ms" (fun () ->
         match Json.of_string line with
         | Ok j -> ignore (Protocol.request_of_json j)
         | Error e -> failwith e));
  ignore (time p "serve.frame_ms" (fun () -> Json.to_string reply))

let render_self p ms = add p "serve.render_ms" (Float.max 0.0 ms)

(* ------------------------------------------------------------------ *)
(* serve-kernels                                                        *)
(* ------------------------------------------------------------------ *)

let serve_request p server session line =
  let reply, ms =
    timed (fun () ->
        match Tdfa_serve.Server.handle_line server session line with
        | Tdfa_serve.Server.Reply j ->
          ignore (Json.to_string j);
          j
        | _ -> failwith "unexpected serve outcome")
  in
  add p "request_ms" ms;
  p.requests <- p.requests + 1;
  frame p line reply

let kernels_pass ~seed p =
  let server = Tdfa_serve.Server.create () in
  let session = Tdfa_serve.Session.create "traced" in
  let frames = Array.of_list (Workloads.kernel_frames ~seed) in
  List.iteri
    (fun v (_, ir) ->
      let line k = frames.((4 * v) + k) in
      (* analyze: inline IR, incremental *)
      serve_request p server session (line 0);
      let f, _ = time p "ir.parse_ms" (fun () -> Parser.parse_func ir) in
      let check () =
        ignore (time p "verify.check_ms" (fun () -> Tdfa_verify.Check.func f))
      in
      check ();
      let analyze prior =
        timed (fun () ->
            Render.analyze ?prior ~policy ~granularity:1 ~delta:0.05
              ~pre_ra:false ~recover:false ~incremental:true f)
      in
      let (_, _), t_render = analyze None in
      let a, t_alloc = allocate p f in
      let tc, t_tc = transfer p a in
      let r, t_fix = fixpoint p tc a.Alloc.func in
      let warm prior =
        timed (fun () ->
            Tdfa.Driver.run cfg
              (Tdfa.Driver.Warm_start
                 { func = a.Alloc.func; assignment = a.Alloc.assignment; prior }))
      in
      let w, t_warm = warm None in
      add p "core.incremental_ms" (t_warm -. t_tc -. t_fix);
      let info = Analysis.info r.Tdfa.Driver.outcome in
      let _, t_crit =
        time p "core.criticality_ms" (fun () ->
            Criticality.rank tc info a.Alloc.func a.Alloc.assignment)
      in
      render_self p (t_render -. t_alloc -. t_warm -. t_tc -. t_crit);
      (* reanalyze: identity warm start from the resident recording *)
      serve_request p server session (line 1);
      check ();
      let prior =
        Option.map
          (fun inc -> inc.Incremental.prior)
          w.Tdfa.Driver.incremental
      in
      let _, t_render = analyze prior in
      let _, t_alloc = allocate p f in
      let _, t_tc = transfer p a in
      let _, t_wi = warm prior in
      add p "core.incremental_ms" (t_wi -. t_tc);
      let _, t_crit =
        time p "core.criticality_ms" (fun () ->
            Criticality.rank tc info a.Alloc.func a.Alloc.assignment)
      in
      render_self p (t_render -. t_alloc -. t_wi -. t_tc -. t_crit);
      (* predict: certified bounds *)
      serve_request p server session (line 2);
      check ();
      let (_, _), t_render =
        timed (fun () ->
            Render.predict ~policy ~granularity:1 ~delta:0.05 ~pre_ra:false f)
      in
      let _, t_alloc = allocate p f in
      let _, t_tc = transfer p a in
      let b, t_abs =
        time p "absint.predict_ms" (fun () ->
            Tdfa_absint.Absint.predict ~delta_k:0.05 tc a.Alloc.func)
      in
      count p "absint.decided"
        (match
           Tdfa_absint.Absint.verdict ~hot_k:Tdfa_lint.Rules.hot_threshold b
         with
         | Tdfa_absint.Absint.Straddles -> 0.0
         | _ -> 1.0);
      count p "absint.predicts" 1.0;
      render_self p (t_render -. t_alloc -. t_tc -. t_abs);
      (* lint: pre-RA context, every registered rule *)
      serve_request p server session (line 3);
      check ();
      let _, t_render =
        timed (fun () -> Render.lint ~post_ra:false ~policy f)
      in
      let _, t_lint =
        time p "lint.run_ms" (fun () ->
            Tdfa_lint.Lint.run Tdfa_lint.Rules.all
              (Tdfa_lint.Lint.make_ctx ~layout f))
      in
      render_self p (t_render -. t_lint))
    (Workloads.kernel_visits ~seed)

(* ------------------------------------------------------------------ *)
(* serve-floorplan                                                      *)
(* ------------------------------------------------------------------ *)

let floorplan_pass ~seed p =
  let server = Tdfa_serve.Server.create () in
  let session = Tdfa_serve.Session.create "traced" in
  let rows, cols =
    Result.get_ok (Tdfa_alloc.Chip.geometry_of_string Workloads.fp_cores)
  in
  let funcs = List.map snd Tdfa_workload.Kernels.all in
  List.iteri
    (fun i req ->
      serve_request p server session (Workloads.floorplan_frame i req);
      match req with
      | Workloads.Place { sa_seed } ->
        let place_policy =
          Tdfa_alloc.Place.Annealed { seed = sa_seed; iters = 2000 }
        in
        let _, t_render =
          timed (fun () ->
              Render.place ~policy ~granularity:1 ~delta:0.05
                ~geometry:(rows, cols) ~place_policy funcs)
        in
        let profiles, t_profile =
          time p "alloc.profile_ms" (fun () ->
              List.map
                (fun (f : Func.t) ->
                  let a, _ = allocate p f in
                  let tc, _ = transfer p a in
                  let r, _ = fixpoint p tc a.Alloc.func in
                  fst
                    (time p "alloc.profile_self_ms" (fun () ->
                         Tdfa_alloc.Task.of_outcome ~core:layout
                           ~name:f.Func.name r.Tdfa.Driver.outcome)))
                funcs)
        in
        let chip, t_chip =
          timed (fun () -> Tdfa_alloc.Chip.make ~core:layout ~rows ~cols ())
        in
        add p "alloc.place_ms" t_chip;
        let placement, t_place =
          time p "alloc.place_ms" (fun () ->
              Tdfa_alloc.Place.run chip place_policy profiles)
        in
        let _, t_rr =
          time p "alloc.place_ms" (fun () ->
              Tdfa_alloc.Place.run chip Tdfa_alloc.Place.Round_robin profiles)
        in
        (* One chip solve, on the chosen placement's per-core power. *)
        let power = Array.make (Tdfa_alloc.Chip.num_cores chip) 0.0 in
        List.iter
          (fun (t : Tdfa_alloc.Task.t) ->
            let c = List.assoc t.Tdfa_alloc.Task.name placement.Tdfa_alloc.Place.assignment in
            power.(c) <- power.(c) +. Tdfa_alloc.Task.sustained_w t)
          profiles;
        let _, t_solve =
          timed (fun () -> Tdfa_alloc.Chip.solve chip ~power)
        in
        count p "alloc.chip_solves" 1.0;
        add p "alloc.chip_solve_us" (t_solve *. 1000.0);
        render_self p (t_render -. t_profile -. t_chip -. t_place -. t_rr)
      | Workloads.Trace { text } ->
        let sample, _ =
          time p "trace.parse_ms" (fun () ->
              Result.get_ok (Tdfa_trace.Sample.parse text))
        in
        let cells = Workloads.fp_cells in
        let policy = Tdfa_trace.Mapping.Direct in
        let _, t_render =
          timed (fun () ->
              Render.trace ~window_us:1000 ~policy ~cells ~granularity:1
                ~delta:0.05 ~recover:false sample)
        in
        let compiled, t_comp =
          time p "trace.compile_ms" (fun () ->
              Tdfa_trace.Compile.compile ~window_us:1000 ~policy ~cells sample)
        in
        let tlayout = Tdfa_trace.Compile.layout_of_cells cells in
        let tcfg = Tdfa.Driver.default ~layout:tlayout in
        let r, t_fix =
          time p "core.fixpoint_ms" (fun () ->
              Tdfa.Driver.run tcfg (Tdfa_trace.Compile.driver_input compiled))
        in
        count p "core.fixpoint_iters"
          (float_of_int (Analysis.info r.Tdfa.Driver.outcome).Analysis.iterations);
        let (exec, cell_of_var), t_exec =
          time p "trace.compile_ms" (fun () -> Tdfa_trace.Compile.exec_trace compiled)
        in
        let _, t_steady =
          time p "thermal.steady_ms" (fun () ->
              let model =
                Tdfa_thermal.Rc_model.build tlayout Tdfa_thermal.Params.default
              in
              Tdfa_exec.Driver.steady_temps model exec ~cell_of_var)
        in
        render_self p (t_render -. t_comp -. t_fix -. t_exec -. t_steady))
    (Workloads.floorplan_requests ~seed)

(* ------------------------------------------------------------------ *)
(* batch-corpus                                                         *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let batch_pass ~seed ~dir p =
  let funcs = Workloads.corpus ~seed in
  let edits = Workloads.edits ~seed funcs in
  let rerun = List.mapi (fun i f -> Option.value ~default:f (List.assoc_opt i edits)) funcs in
  let spec = Engine.default_spec in
  let cache_dir = Filename.concat dir "traced-cache" in
  let store_dir = Filename.concat dir "traced-store" in
  rm_rf cache_dir;
  rm_rf store_dir;
  let cache = Engine.Cache.on_disk ~dir:cache_dir in
  let store = Engine.Cache.on_disk ~dir:store_dir in
  let round funcs =
    let texts = List.map Printer.func_to_string funcs in
    (* Traced request time: the CLI's load (parse) plus the engine. *)
    let jobs, t_parse =
      timed (fun () ->
          List.map
            (fun text ->
              let f = Parser.parse_func text in
              Engine.job f.Func.name f)
            texts)
    in
    let b, t_batch =
      timed (fun () -> Engine.run_batch ~jobs:1 ~cache ~layout spec jobs)
    in
    add p "request_ms" (t_parse +. t_batch);
    p.requests <- p.requests + List.length funcs;
    count p "engine.hits" (float_of_int b.Engine.hits);
    (* The same work, layer by layer. *)
    List.iter2
      (fun text (name, res) ->
        let f, _ = time p "ir.parse_ms" (fun () -> Parser.parse_func text) in
        let key, _ =
          time p "engine.digest_ms" (fun () -> Engine.digest_key ~layout spec f)
        in
        let report = Result.get_ok res in
        match report.Engine.source with
        | Engine.Cache_hit ->
          ignore (time p "engine.cache_ms" (fun () -> Engine.Cache.find cache key))
        | Engine.Computed | Engine.Warm_hit ->
          ignore (time p "engine.cache_ms" (fun () -> Engine.Cache.find store key));
          ignore (time p "verify.check_ms" (fun () -> Tdfa_verify.Check.func f));
          let a, _ = allocate p f in
          let tc, _ = transfer p a in
          let r, _ = fixpoint p tc a.Alloc.func in
          let fp, _ =
            time p "engine.digest_ms" (fun () ->
                Engine.fingerprint r.Tdfa.Driver.outcome)
          in
          if fp <> report.Engine.fingerprint then
            failwith ("traced fingerprint differs for " ^ name);
          ignore
            (time p "engine.cache_ms" (fun () ->
                 Engine.Cache.store store key report)))
      texts b.Engine.results;
    b
  in
  ignore (round funcs);
  let b = round rerun in
  count p "engine.rerun_lookups" (float_of_int (List.length b.Engine.results));
  rm_rf cache_dir;
  rm_rf store_dir

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let layer_names =
  [ "serve.frame_ms"; "serve.render_ms"; "ir.parse_ms"; "verify.check_ms";
    "regalloc.allocate_ms"; "core.transfer_ms"; "core.fixpoint_ms";
    "core.incremental_ms"; "core.criticality_ms"; "absint.predict_ms";
    "lint.run_ms"; "trace.parse_ms"; "trace.compile_ms"; "thermal.steady_ms";
    "alloc.profile_ms"; "alloc.place_ms"; "engine.digest_ms";
    "engine.cache_ms" ]

(* Coverage sums disjoint times: [alloc.profile_ms] nests the regalloc
   and core calls it makes, so only its own remainder counts. *)
let coverage_layers =
  "alloc.profile_self_ms"
  :: List.filter (fun k -> k <> "alloc.profile_ms") layer_names

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The exact counts of one pass, as reported. *)
let exact_metrics p =
  let e = get p.exact and per = float_of_int p.requests in
  [ ("core.fixpoint_iters", e "core.fixpoint_iters" /. per);
    ("regalloc.minor_mwords", e "regalloc.minor_mwords" /. per);
    ("regalloc.spilled", e "regalloc.spilled" /. per);
    ("absint.decided_ratio", ratio (e "absint.decided") (e "absint.predicts"));
    ("engine.hit_ratio", ratio (e "engine.hits") (e "engine.rerun_lookups")) ]

let run workload seed dir seconds =
  let one () =
    let p = new_pass () in
    (match workload with
     | "serve-kernels" -> kernels_pass ~seed p
     | "serve-floorplan" -> floorplan_pass ~seed p
     | "batch-corpus" -> batch_pass ~seed ~dir p
     | w -> failwith ("unknown workload " ^ w));
    p
  in
  (* One unmeasured warm-up pass. *)
  ignore (one ());
  let t_end = Unix.gettimeofday () +. seconds in
  let first = one () in
  let rec more acc =
    if Unix.gettimeofday () < t_end || List.length acc < 2 then
      more (one () :: acc)
    else List.rev acc
  in
  let passes = more [ first ] in
  let second = List.nth passes 1 in
  let exact_repeat = exact_metrics first = exact_metrics second in
  let requests = float_of_int (List.fold_left (fun n p -> n + p.requests) 0 passes) in
  let total k = List.fold_left (fun s p -> s +. get p.times k) 0.0 passes in
  let per k = total k /. requests in
  let solves =
    List.fold_left (fun s p -> s +. get p.exact "alloc.chip_solves") 0.0 passes
  in
  let covered = List.fold_left (fun s k -> s +. per k) 0.0 coverage_layers in
  let metrics =
    List.map (fun k -> (k, per k)) layer_names
    @ [ ("alloc.chip_solve_us", ratio (total "alloc.chip_solve_us") solves);
        ("request_ms", per "request_ms");
        ("layer_coverage", ratio covered (per "request_ms")) ]
    @ exact_metrics first
  in
  let fields =
    [ ("exact_repeat", Json.Bool exact_repeat);
      ("passes", Json.Int (List.length passes));
      ("requests", Json.Int (int_of_float requests));
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics)) ]
  in
  print_endline (Json.to_string (Json.Obj fields))
