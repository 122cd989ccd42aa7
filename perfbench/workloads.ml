(* Seeded inputs of the three benchmark workloads.

   Everything here is a pure function of the seed: the same seed gives
   byte-identical request frames and corpus files, a different seed
   changes them. The benchmark replays whole passes of these sequences,
   so the request mix (and with it the rank of every percentile) is
   the same from run to run. *)

open Tdfa_ir
module Json = Tdfa_serve.Json

let rng ~seed tag = Random.State.make [| 0x7064_6661; seed; tag |]

(* Fisher-Yates over a copy. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let frame fields = Json.to_string (Json.Obj fields)

(* ------------------------------------------------------------------ *)
(* serve-kernels                                                        *)
(* ------------------------------------------------------------------ *)

(* One pass visits the 16 built-in kernels in seeded order. Each visit
   ships the kernel as inline IR with an incremental analyze, then
   reanalyzes, predicts and lints the resident program. *)
let kernel_ops = [ "analyze"; "reanalyze"; "predict"; "lint" ]

let kernel_visits ~seed =
  shuffle (rng ~seed 1) (List.map fst Tdfa_workload.Kernels.all)
  |> List.map (fun name ->
      let f = Option.get (Tdfa_workload.Kernels.find name) in
      (name, Printer.func_to_string f))

let kernel_frames ~seed =
  List.concat_map
    (fun (name, ir) ->
      List.map
        (fun op ->
          let id = ("id", Json.Str (name ^ "/" ^ op)) in
          let fields =
            if op = "analyze" then
              [ id; ("op", Json.Str op); ("ir", Json.Str ir);
                ("incremental", Json.Bool true) ]
            else [ id; ("op", Json.Str op) ]
          in
          frame fields)
        kernel_ops)
    (kernel_visits ~seed)

(* ------------------------------------------------------------------ *)
(* serve-floorplan                                                      *)
(* ------------------------------------------------------------------ *)

let fp_rounds = 2
let fp_traces_per_place = 3
let fp_cores = "8x8"
let fp_cells = 4096
let fp_samples = 20_000
let fp_addrs = 8_192

type fp_request =
  | Place of { sa_seed : int }
  | Trace of { text : string }

(* [fp_rounds] rounds of one annealed placement of every kernel on an
   8x8 chip followed by three Zipf trace replays on 4096 cells. *)
let floorplan_requests ~seed =
  let st = rng ~seed 2 in
  List.concat
    (List.init fp_rounds (fun _ ->
         let sa_seed = Random.State.bits st in
         Place { sa_seed }
         :: List.init fp_traces_per_place (fun _ ->
             let trace_seed = Random.State.bits st in
             let sample =
               Tdfa_trace.Synth.zipf ~seed:trace_seed ~s:1.0 ~addrs:fp_addrs
                 ~n:fp_samples ()
             in
             let sample =
               { sample with
                 Tdfa_trace.Sample.name = Printf.sprintf "zipf%x" trace_seed }
             in
             Trace { text = Tdfa_trace.Sample.print sample })))

let floorplan_frame i = function
  | Place { sa_seed } ->
    frame
      [ ("id", Json.Str (Printf.sprintf "place-%d" i));
        ("op", Json.Str "place"); ("cores", Json.Str fp_cores);
        ("place", Json.Str "anneal"); ("seed", Json.Int sa_seed) ]
  | Trace { text; _ } ->
    frame
      [ ("id", Json.Str (Printf.sprintf "trace-%d" i));
        ("op", Json.Str "trace"); ("trace", Json.Str text);
        ("cells", Json.Int fp_cells) ]

let floorplan_frames ~seed = List.mapi floorplan_frame (floorplan_requests ~seed)

(* ------------------------------------------------------------------ *)
(* batch-corpus                                                         *)
(* ------------------------------------------------------------------ *)

let corpus_size = 120
let edit_share = 8

let file_name i = Printf.sprintf "g%03d.tdfa" i

(* Analysis cost grows with body instructions times variables (register
   allocation, the dominant layer, is quadratic in function size), so
   that product sorts the generated functions by cost. *)
let size f = Func.instr_count f * Var.Set.cardinal (Func.defined_vars f)

(* Size strata (exclusive upper bound, functions drawn into it). The
   generator's sizes are heavy-tailed: drawn plainly, three functions
   can take 40% of a pass. The bounds are the generator's own
   20/40/60/80th size percentiles, so the corpus keeps its natural shape
   below the 80th; above it, sizes up to 20,000 (about the 94th
   percentile) fill the last 24 slots, so that no single input sets the
   workload's time. The per-job p50 and p90 then fall inside a stratum
   (ranks 48-71 and 96-111), not on the edge between two. *)
let strata = [ (720, 24); (1_740, 24); (3_080, 24); (4_850, 24);
               (12_000, 16); (20_000, 8) ]

(* The functions are drawn with this fixed seed, not the run's: with a
   corpus drawn per run seed, the per-job p50 and p90 moved with the
   functions a seed happened to draw inside a stratum, and the spread
   across seeds exceeded what the host noise alone gives. Every run
   analyzes the same 120 functions; the run's seed sets the order in
   which they are named and batched, and the edits of the rerun. *)
let corpus_seed = 0x636f

(* 120 functions of [Generator.gen_func ~max_pool:44 ~max_depth:2
   ~max_length:10], drawn until the strata are full, then put in seeded
   order and renamed g000..g119 so every batch report line names its
   file. *)
let corpus ~seed =
  let st = rng ~seed:corpus_seed 3 in
  let gen =
    Tdfa_workload.Generator.gen_func ~max_pool:44 ~max_depth:2
      ~max_length:10 ()
  in
  let left = Array.of_list (List.map snd strata) in
  let bounds = Array.of_list (List.map fst strata) in
  let rec draw acc n =
    if n = corpus_size then acc
    else
      let f = QCheck2.Gen.generate1 ~rand:st gen in
      let sz = size f in
      let rec bin k =
        if k = Array.length bounds then None
        else if sz < bounds.(k) then Some k
        else bin (k + 1)
      in
      match bin 0 with
      | Some k when left.(k) > 0 ->
        left.(k) <- left.(k) - 1;
        draw (f :: acc) (n + 1)
      | _ -> draw acc n
  in
  shuffle (rng ~seed 3) (List.rev (draw [] 0))
  |> List.mapi (fun i (f : Func.t) ->
      Func.make ~name:(Filename.remove_extension (file_name i))
        ~params:f.Func.params f.Func.blocks)

(* The rerun edits one in eight files, spread evenly over the size
   order from a seeded offset so every seed's rerun has the same cost
   profile too: a [nop] lands at a seeded position of a seeded block,
   which changes the content key (a cache miss) and leaves the function
   well formed. *)
let edits ~seed funcs =
  let st = rng ~seed 4 in
  let offset = Random.State.int st edit_share in
  let chosen =
    List.mapi (fun i f -> (size f, i)) funcs
    |> List.sort compare
    |> List.filteri (fun r _ -> r mod edit_share = offset)
    |> List.map snd |> List.sort compare
  in
  List.map
    (fun i ->
      let f = List.nth funcs i in
      let blocks = Array.of_list f.Func.blocks in
      let b = blocks.(Random.State.int st (Array.length blocks)) in
      let body = Array.to_list b.Block.body in
      let at = Random.State.int st (List.length body + 1) in
      let body =
        List.filteri (fun k _ -> k < at) body
        @ (Instr.Nop :: List.filteri (fun k _ -> k >= at) body)
      in
      (i, Func.replace_block f (Block.with_body b body)))
    chosen

(* The bytes the benchmark writes and sends, in order: the request
   stream of a workload. The self-test compares these across seeds. *)
let stream ~workload ~seed =
  match workload with
  | "serve-kernels" -> kernel_frames ~seed
  | "serve-floorplan" -> floorplan_frames ~seed
  | "batch-corpus" ->
    let funcs = corpus ~seed in
    List.map Printer.func_to_string funcs
    @ List.map
        (fun (i, f) -> file_name i ^ "\n" ^ Printer.func_to_string f)
        (edits ~seed funcs)
  | w -> invalid_arg ("unknown workload " ^ w)

let names = [ "serve-kernels"; "serve-floorplan"; "batch-corpus" ]
