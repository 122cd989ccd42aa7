open Tdfa_ir
open Tdfa_dataflow
open Tdfa_floorplan
open Tdfa_regalloc

let predict ?(regions_rows = 2) ?(regions_cols = 2) (func : Func.t) layout =
  let regions = Region.grid layout ~rows:regions_rows ~cols:regions_cols in
  let ud = Use_def.build func in
  let loops = Loops.analyze func in
  let weight v = Use_def.weighted_access_count ud loops v in
  let vars =
    Var.Set.elements (Func.all_vars func)
    |> List.sort (fun a b ->
           match Float.compare (weight b) (weight a) with
           | 0 -> Var.compare a b
           | c -> c)
  in
  (* Hottest variables first, dealt round-robin across regions; inside a
     region, cells are used in centre-out order and reused cyclically
     under pressure. *)
  let num_regions = Region.num_regions regions in
  let region_cells =
    Array.init num_regions (fun r ->
        let centroid = Region.centroid_cell regions r in
        let cells = Region.cells_of_region regions r in
        let dist c = Layout.manhattan layout c centroid in
        Array.of_list
          (List.sort
             (fun a b ->
               match Int.compare (dist a) (dist b) with
               | 0 -> Int.compare a b
               | c -> c)
             cells))
  in
  let cursor = Array.make num_regions 0 in
  let assignment = ref Assignment.empty in
  List.iteri
    (fun i v ->
      let r = i mod num_regions in
      let cells = region_cells.(r) in
      let cell = cells.(cursor.(r) mod Array.length cells) in
      cursor.(r) <- cursor.(r) + 1;
      assignment := Assignment.add !assignment v cell)
    vars;
  !assignment
