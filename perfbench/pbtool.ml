(* In-process helper of the benchmark.

     pbtool gen WORKLOAD SEED DIR    write the seeded inputs and oracles
     pbtool layers WORKLOAD SEED DIR SECONDS
                                     traced per-layer run (JSON on stdout)
     pbtool jobtimes CACHE FILE...   per-job service time (ms) that
                                     tdfa batch recorded in its cache
     pbtool calib                    host calibration loop, in ms

   perfbench/run.py calls it; nothing here is timed end to end. *)

module Json = Tdfa_serve.Json

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let write_lines path lines =
  write_file path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let gen workload seed dir =
  match workload with
  | "serve-kernels" ->
    write_lines (Filename.concat dir "requests.jsonl")
      (Workloads.kernel_frames ~seed);
    write_lines (Filename.concat dir "expect.jsonl")
      (List.map
         (fun o -> Json.to_string (Json.Obj o))
         (Oracle.kernel_expectations ~seed))
  | "serve-floorplan" ->
    write_lines (Filename.concat dir "requests.jsonl")
      (Workloads.floorplan_frames ~seed);
    write_lines (Filename.concat dir "expect.jsonl")
      (List.map
         (fun o -> Json.to_string (Json.Obj o))
         (Oracle.floorplan_expectations ~seed))
  | "batch-corpus" ->
    let funcs = Workloads.corpus ~seed in
    let sub name =
      let d = Filename.concat dir name in
      Unix.mkdir d 0o755;
      d
    in
    let corpus = sub "corpus" and edits = sub "edits" in
    (* The set-up probe: a batch of one function that does nothing. *)
    write_file
      (Filename.concat dir "setup.tdfa")
      "func @setup() {\nentry:\n  %t0 = const 0\n  ret %t0\n}\n";
    List.iteri
      (fun i f ->
        write_file
          (Filename.concat corpus (Workloads.file_name i))
          (Tdfa_ir.Printer.func_to_string f))
      funcs;
    List.iter
      (fun (i, f) ->
        write_file
          (Filename.concat edits (Workloads.file_name i))
          (Tdfa_ir.Printer.func_to_string f))
      (Workloads.edits ~seed funcs)
  | w -> failwith ("unknown workload " ^ w)

(* [tdfa batch] stores each computed report, with the job's wall time
   as the engine measured it, under the job's content key. Read those
   times back for the files of a finished cold pass, in order — the
   batch workload's per-request latencies, taken from the untraced
   CLI run itself. The spec is the CLI's default one. *)
let jobtimes cache files =
  let cache = Tdfa_engine.Engine.Cache.on_disk ~dir:cache in
  let spec = Tdfa_engine.Engine.default_spec in
  List.iter
    (fun path ->
      let f =
        Tdfa_ir.Parser.parse_func
          (In_channel.with_open_bin path In_channel.input_all)
      in
      let key = Tdfa_engine.Engine.digest_key ~layout:Oracle.layout spec f in
      match Tdfa_engine.Engine.Cache.find cache key with
      | Some r -> Printf.printf "%.6f\n" r.Tdfa_engine.Engine.wall_ms
      | None -> failwith ("no cache entry for " ^ path))
    files

(* A fixed pure-OCaml loop (float and integer mixing, no allocation)
   timed around each run, so host drift can be told from benchmark
   noise. *)
let calib () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0.5 and h = ref 0 in
  for i = 1 to 20_000_000 do
    x := (!x *. 3.7 *. (1.0 -. !x)) +. 1e-9;
    h := (!h * 31) + i land 0xffff
  done;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Printf.printf "%.4f\n" (if !x > 2.0 || !h = 42 then ms +. 0.0 else ms)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir ] -> gen w (int_of_string seed) dir
  | [ "layers"; w; seed; dir; seconds ] ->
    Layers.run w (int_of_string seed) dir (float_of_string seconds)
  | "jobtimes" :: cache :: files -> jobtimes cache files
  | [ "calib" ] -> calib ()
  | _ ->
    prerr_endline
      "usage: pbtool (gen W SEED DIR | layers W SEED DIR SECONDS | jobtimes \
       CACHE FILE... | calib)";
    exit 2
