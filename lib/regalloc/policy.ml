open Tdfa_floorplan

type t =
  | First_fit
  | Round_robin
  | Random of int
  | Chessboard
  | Thermal_spread
  | Bank_pack of int
  | Measured of float array

let name = function
  | First_fit -> "first-fit"
  | Round_robin -> "round-robin"
  | Random _ -> "random"
  | Chessboard -> "chessboard"
  | Thermal_spread -> "thermal-spread"
  | Bank_pack _ -> "bank-pack"
  | Measured _ -> "measured"

let all =
  [ First_fit; Round_robin; Random 42; Chessboard; Thermal_spread; Bank_pack 4 ]

let of_string s = List.find_opt (fun p -> String.equal (name p) s) all

let bank_of_cell layout ~banks cell =
  let _, col = Layout.coord layout cell in
  col * banks / layout.Layout.cols

type state =
  | S_first_fit
  | S_round_robin of int ref
  | S_random of Random.State.t
  | S_ordered of int array
      (* fixed preference order: chessboard (black-first) and bank-pack
         (bank-major) reduce to this *)
  | S_thermal of float array  (* accumulated access weight per cell *)
  | S_measured of float array * float array
      (* normalised measured temperatures + accumulated load of the
         current round: feedback-guided assignment balances both *)

type chooser = { layout : Layout.t; state : state }

let make_chooser policy layout =
  let state =
    match policy with
    | First_fit -> S_first_fit
    | Round_robin -> S_round_robin (ref 0)
    | Random seed -> S_random (Random.State.make [| seed |])
    | Chessboard ->
      let cells = Array.of_list (Layout.cells layout) in
      let order i j =
        match
          Int.compare (Layout.chessboard_color layout i)
            (Layout.chessboard_color layout j)
        with
        | 0 -> Int.compare i j
        | c -> c
      in
      Array.sort order cells;
      S_ordered cells
    | Thermal_spread -> S_thermal (Array.make (Layout.num_cells layout) 0.0)
    | Bank_pack banks ->
      let cells = Array.of_list (Layout.cells layout) in
      let order i j =
        match
          Int.compare (bank_of_cell layout ~banks i) (bank_of_cell layout ~banks j)
        with
        | 0 -> Int.compare i j
        | c -> c
      in
      Array.sort order cells;
      S_ordered cells
    | Measured temps ->
      assert (Array.length temps = Layout.num_cells layout);
      let lo = Array.fold_left Float.min infinity temps in
      let hi = Array.fold_left Float.max neg_infinity temps in
      let span = Float.max 1e-9 (hi -. lo) in
      let normalised = Array.map (fun t -> (t -. lo) /. span) temps in
      S_measured (normalised, Array.make (Layout.num_cells layout) 0.0)
  in
  { layout; state }

(* Free cells in ascending order. *)
let free_cells forbidden =
  let free = ref [] in
  for c = Array.length forbidden - 1 downto 0 do
    if not forbidden.(c) then free := c :: !free
  done;
  !free

(* Free cell with the smallest cost; ties break on the lowest index. *)
let pick_min_cost forbidden cost =
  let best = ref (-1) and best_cost = ref 0.0 in
  for c = 0 to Array.length forbidden - 1 do
    if not forbidden.(c) then begin
      let cc = cost c in
      if !best < 0 || cc < !best_cost -. 1e-12 then begin
        best := c;
        best_cost := cc
      end
    end
  done;
  if !best < 0 then None else Some !best

let first_free forbidden =
  let n = Array.length forbidden in
  let rec scan c =
    if c >= n then None else if forbidden.(c) then scan (c + 1) else Some c
  in
  scan 0

let choose chooser ~forbidden ~weight =
  let layout = chooser.layout in
  let n = Layout.num_cells layout in
  if Array.length forbidden <> n then
    invalid_arg "Policy.choose: the mask must have one entry per cell";
  match chooser.state with
  | S_first_fit -> first_free forbidden
  | S_round_robin cursor ->
    let rec scan k =
      if k >= n then None
      else
        let c = (!cursor + k) mod n in
        if forbidden.(c) then scan (k + 1)
        else begin
          cursor := (c + 1) mod n;
          Some c
        end
    in
    scan 0
  | S_random rng ->
    let free = Array.of_list (free_cells forbidden) in
    if Array.length free = 0 then None
    else Some free.(Random.State.int rng (Array.length free))
  | S_ordered order ->
    Array.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None -> if forbidden.(c) then None else Some c)
      None order
  | S_thermal load -> (
    (* Cost of placing at [c]: proximity-weighted accumulated load.
       Lower is cooler. Deterministic tie-break on the index. *)
    let cost c =
      let acc = ref 0.0 in
      for other = 0 to n - 1 do
        if not (load.(other) <= 0.0) then begin
          let d = float_of_int (Layout.manhattan layout c other) in
          acc := !acc +. (load.(other) /. (1.0 +. d))
        end
      done;
      !acc
    in
    match pick_min_cost forbidden cost with
    | Some c ->
      load.(c) <- load.(c) +. Float.max 1.0 weight;
      Some c
    | None -> None)
  | S_measured (temps, load) -> (
    (* Feedback round: avoid the cells the last simulation measured hot
       (and their vicinity — conduction makes neighbours of a hot spot
       poor choices too), while also spreading this round's own
       assignments. *)
    let cost c =
      let near measure other =
        if measure <= 0.0 then 0.0
        else
          let d = float_of_int (Layout.manhattan layout c other) in
          measure /. (1.0 +. d)
      in
      let acc = ref (2.0 *. temps.(c)) in
      for other = 0 to n - 1 do
        acc := !acc +. near load.(other) other +. near temps.(other) other
      done;
      !acc
    in
    match pick_min_cost forbidden cost with
    | Some c ->
      load.(c) <- load.(c) +. 1.0;
      Some c
    | None -> None)
