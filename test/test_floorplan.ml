(* Tests of the floorplan library: grid geometry, distances,
   neighbourhoods, the chessboard colouring and region partitions. *)

open Tdfa_floorplan

let layout = Layout.make ~rows:8 ~cols:8 ()

let test_make_validation () =
  Alcotest.(check bool) "zero rows rejected" true
    (match Layout.make ~rows:0 ~cols:4 () with
     | (_ : Layout.t) -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative cell rejected" true
    (match Layout.make ~cell_width_um:(-1.0) ~rows:2 ~cols:2 () with
     | (_ : Layout.t) -> false
     | exception Invalid_argument _ -> true)

let test_coord_index_roundtrip () =
  List.iter
    (fun i ->
      let row, col = Layout.coord layout i in
      Alcotest.(check int) "roundtrip" i (Layout.index layout ~row ~col))
    (Layout.cells layout)

let test_num_cells () =
  Alcotest.(check int) "64 cells" 64 (Layout.num_cells layout);
  Alcotest.(check int) "cells list" 64 (List.length (Layout.cells layout))

let test_distance_properties () =
  let cells = Layout.cells layout in
  List.iter
    (fun i ->
      Alcotest.(check (float 1e-9)) "self distance" 0.0
        (Layout.distance_um layout i i))
    cells;
  (* Symmetry on a sample. *)
  List.iter
    (fun (i, j) ->
      Alcotest.(check (float 1e-9)) "symmetric"
        (Layout.distance_um layout i j)
        (Layout.distance_um layout j i))
    [ (0, 63); (5, 40); (12, 13) ]

let test_manhattan () =
  Alcotest.(check int) "corner to corner" 14 (Layout.manhattan layout 0 63);
  Alcotest.(check int) "adjacent" 1 (Layout.manhattan layout 0 1);
  Alcotest.(check int) "one row down" 1 (Layout.manhattan layout 0 8)

let test_neighbors () =
  (* Corner has 2, edge has 3, interior has 4. *)
  Alcotest.(check int) "corner" 2 (List.length (Layout.neighbors layout 0));
  Alcotest.(check int) "edge" 3 (List.length (Layout.neighbors layout 1));
  Alcotest.(check int) "interior" 4 (List.length (Layout.neighbors layout 9));
  (* Neighbour relation is symmetric. *)
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          Alcotest.(check bool) "symmetric" true
            (List.mem i (Layout.neighbors layout j)))
        (Layout.neighbors layout i))
    (Layout.cells layout);
  (* Up, left, right, down, those on the grid — as a list, as an array
     and as a count — on degenerate and skewed grids too. *)
  List.iter
    (fun (rows, cols) ->
      let l = Layout.make ~rows ~cols () in
      List.iter
        (fun i ->
          let r = i / cols and c = i mod cols in
          let expected =
            List.filter_map
              (fun (r, c) ->
                if r >= 0 && r < rows && c >= 0 && c < cols then
                  Some ((r * cols) + c)
                else None)
              [ (r - 1, c); (r, c - 1); (r, c + 1); (r + 1, c) ]
          in
          let name = Printf.sprintf "%dx%d cell %d" rows cols i in
          Alcotest.(check (list int)) name expected (Layout.neighbors l i);
          Alcotest.(check (array int)) (name ^ " array")
            (Array.of_list expected) (Layout.neighbor_array l i);
          Alcotest.(check int) (name ^ " degree") (List.length expected)
            (Layout.degree l i))
        (Layout.cells l))
    [ (1, 1); (1, 5); (5, 1); (2, 2); (3, 7); (7, 3); (8, 8) ]

let test_chessboard_color () =
  Alcotest.(check int) "origin is black" 0 (Layout.chessboard_color layout 0);
  Alcotest.(check int) "next is white" 1 (Layout.chessboard_color layout 1);
  Alcotest.(check int) "row start alternates" 1 (Layout.chessboard_color layout 8);
  (* Exactly half the cells of an even grid are black. *)
  let blacks =
    List.length
      (List.filter (fun c -> Layout.chessboard_color layout c = 0) (Layout.cells layout))
  in
  Alcotest.(check int) "32 black cells" 32 blacks;
  (* Neighbouring cells always differ in colour. *)
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          Alcotest.(check bool) "adjacent differ" true
            (Layout.chessboard_color layout i <> Layout.chessboard_color layout j))
        (Layout.neighbors layout i))
    (Layout.cells layout)

let test_region_partition () =
  let r = Region.quadrants layout in
  Alcotest.(check int) "4 regions" 4 (Region.num_regions r);
  (* Every cell in exactly one region; regions cover everything. *)
  let total =
    List.init (Region.num_regions r) (fun q ->
        List.length (Region.cells_of_region r q))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "cover all cells" 64 total;
  List.iter
    (fun c ->
      let q = Region.region_of_cell r c in
      Alcotest.(check bool) "membership consistent" true
        (List.mem c (Region.cells_of_region r q)))
    (Layout.cells layout)

let test_region_quadrants_shape () =
  let r = Region.quadrants layout in
  (* Cell 0 (top-left) and cell 63 (bottom-right) are in different
     quadrants. *)
  Alcotest.(check bool) "opposite corners differ" true
    (Region.region_of_cell r 0 <> Region.region_of_cell r 63);
  Alcotest.(check int) "16 cells per quadrant" 16
    (List.length (Region.cells_of_region r 0))

let test_region_banks () =
  let r = Region.banks layout ~n:4 in
  Alcotest.(check int) "4 banks" 4 (Region.num_regions r);
  (* A bank contains whole columns: same bank along a column. *)
  Alcotest.(check int) "col 0 and row below same bank"
    (Region.region_of_cell r 0)
    (Region.region_of_cell r 8)

let test_region_centroid_inside () =
  let r = Region.quadrants layout in
  List.iter
    (fun q ->
      let c = Region.centroid_cell r q in
      Alcotest.(check int) "centroid in its region" q (Region.region_of_cell r c))
    (List.init (Region.num_regions r) Fun.id)

let test_region_invalid () =
  Alcotest.(check bool) "too many regions rejected" true
    (match Region.grid layout ~rows:9 ~cols:1 with
     | (_ : Region.t) -> false
     | exception Invalid_argument _ -> true)

let test_degenerate_layouts () =
  (* A 1xN strip: no vertical neighbours, distances accumulate along
     the row in cell-width steps. *)
  let strip = Layout.make ~rows:1 ~cols:5 () in
  Alcotest.(check int) "strip end has 1 neighbour" 1
    (List.length (Layout.neighbors strip 0));
  Alcotest.(check int) "strip middle has 2 neighbours" 2
    (List.length (Layout.neighbors strip 2));
  Alcotest.(check (float 1e-9)) "adjacent strip cells one width apart" 12.0
    (Layout.distance_um strip 0 1);
  Alcotest.(check (float 1e-9)) "strip ends four widths apart" 48.0
    (Layout.distance_um strip 0 4);
  (* A single cell: no neighbours, zero self-distance. *)
  let dot = Layout.make ~rows:1 ~cols:1 () in
  Alcotest.(check int) "single cell has no neighbours" 0
    (List.length (Layout.neighbors dot 0));
  Alcotest.(check (float 1e-9)) "single cell self distance" 0.0
    (Layout.distance_um dot 0 0);
  (* A vertical 1-column strip measures in cell heights. *)
  let col = Layout.make ~rows:4 ~cols:1 () in
  Alcotest.(check (float 1e-9)) "adjacent column cells one height apart" 6.0
    (Layout.distance_um col 0 1)

let test_banks_degenerate () =
  (* Banks on a 1xN strip: one single-cell region per column — the
     degenerate partition quadrants cannot express (2 rows > 1). *)
  let strip = Layout.make ~rows:1 ~cols:5 () in
  let r = Region.banks strip ~n:5 in
  Alcotest.(check int) "5 single-cell banks" 5 (Region.num_regions r);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "bank %d has one cell" q)
        1
        (List.length (Region.cells_of_region r q));
      Alcotest.(check int) "its centroid is that cell" q
        (Region.centroid_cell r q))
    (List.init 5 Fun.id);
  (* n = 1 collapses every cell into a single bank. *)
  let one = Region.banks strip ~n:1 in
  Alcotest.(check int) "one bank" 1 (Region.num_regions one);
  Alcotest.(check int) "it holds the whole strip" 5
    (List.length (Region.cells_of_region one 0));
  (* Quadrants on the strip are rejected, banks are the only shape. *)
  Alcotest.(check bool) "quadrants rejected on a strip" true
    (match Region.quadrants strip with
     | (_ : Region.t) -> false
     | exception Invalid_argument _ -> true)

let test_nonsquare_layout () =
  let l = Layout.make ~rows:4 ~cols:16 () in
  Alcotest.(check int) "cells" 64 (Layout.num_cells l);
  let row, col = Layout.coord l 17 in
  Alcotest.(check (pair int int)) "coord" (1, 1) (row, col)

(* QCheck: coord/index roundtrip and neighbour symmetry over random
   layouts. *)
let qcheck_layout_roundtrip =
  QCheck2.Test.make ~name:"coord/index roundtrip on random layouts" ~count:100
    QCheck2.Gen.(pair (int_range 1 16) (int_range 1 16))
    (fun (rows, cols) ->
      let l = Layout.make ~rows ~cols () in
      List.for_all
        (fun i ->
          let row, col = Layout.coord l i in
          Layout.index l ~row ~col = i)
        (Layout.cells l))

let qcheck_manhattan_triangle =
  QCheck2.Test.make ~name:"manhattan triangle inequality" ~count:200
    QCheck2.Gen.(triple (int_range 0 63) (int_range 0 63) (int_range 0 63))
    (fun (a, b, c) ->
      Layout.manhattan layout a c
      <= Layout.manhattan layout a b + Layout.manhattan layout b c)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "floorplan.layout",
      [
        tc "validation" `Quick test_make_validation;
        tc "coord/index roundtrip" `Quick test_coord_index_roundtrip;
        tc "cell count" `Quick test_num_cells;
        tc "distance properties" `Quick test_distance_properties;
        tc "manhattan" `Quick test_manhattan;
        tc "neighbors" `Quick test_neighbors;
        tc "chessboard colouring" `Quick test_chessboard_color;
        tc "non-square layout" `Quick test_nonsquare_layout;
        tc "degenerate layouts" `Quick test_degenerate_layouts;
        QCheck_alcotest.to_alcotest qcheck_layout_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_manhattan_triangle;
      ] );
    ( "floorplan.region",
      [
        tc "partition" `Quick test_region_partition;
        tc "quadrant shape" `Quick test_region_quadrants_shape;
        tc "banks" `Quick test_region_banks;
        tc "degenerate banks" `Quick test_banks_degenerate;
        tc "centroid inside" `Quick test_region_centroid_inside;
        tc "invalid grid" `Quick test_region_invalid;
      ] );
  ]
