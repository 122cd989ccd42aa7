open Tdfa_ir

type t = {
  name : string;
  max_log : int;
  mutable func : Func.t option;
  mutable prior : Tdfa_core.Incremental.prior option;
  mutable allocations :
    (Func.t * Tdfa_regalloc.Policy.t option * Render.allocation) list;
  mutable log : Protocol.request list;
  mutable served : int;
  mutable crashes : int;
}

let create ?(max_log = 8) name =
  {
    name;
    max_log;
    func = None;
    prior = None;
    allocations = [];
    log = [];
    served = 0;
    crashes = 0;
  }

let drop_analysis t =
  t.prior <- None;
  t.allocations <- []

(* Keyed by the program itself (physically: a structurally equal copy
   allocates the same, but is not worth comparing) and by the policy,
   [None] for the pre-RA placement, which has none. Entries of another
   program are dropped on a miss. *)
let allocation ?obs t ~policy ~pre_ra f =
  let key = if pre_ra then None else Some policy in
  match
    List.find_opt (fun (g, k, _) -> g == f && k = key) t.allocations
  with
  | Some (_, _, a) -> a
  | None ->
    let a = Render.allocation ?obs ~policy ~pre_ra f in
    t.allocations <-
      (f, key, a) :: List.filter (fun (g, _, _) -> g == f) t.allocations;
    a

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Only program-state-building ops enter the log: they are what a
   rebuild must replay. Status/shutdown are stateless, and so is trace
   (the stream rides in the request itself). *)
let record t (req : Protocol.request) =
  (match req.Protocol.op with
   | Protocol.Analyze | Protocol.Reanalyze | Protocol.Predict | Protocol.Lint
     ->
     t.log <- take t.max_log (req :: t.log)
   | Protocol.Trace | Protocol.Place | Protocol.Status | Protocol.Shutdown ->
     ());
  t.served <- t.served + 1

let quarantine t =
  t.func <- None;
  drop_analysis t;
  t.crashes <- t.crashes + 1

let log_oldest_first t = List.rev t.log
