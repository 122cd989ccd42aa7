(** An N-core chip floorplan: the multi-core generalization of
    {!Tdfa_floorplan.Layout}.

    The chip reuses [Layout.t] at a coarser scale — each {e cell} of the
    chip grid is one core, itself a whole register-file layout. That
    buys the core grid everything the RF grid already has (coordinates,
    4-connected neighbours, centre distances, chessboard colouring) for
    free. The core grid has one lateral conductance, one vertical
    conductance and insulated edges, so its conductance matrix is
    diagonal in the product cosine (DCT-II) basis of the two sides, and
    {!solve} is a direct solve in that basis rather than a Gauss–Seidel
    sweep.

    Conductances scale physically from the per-cell coefficients in
    {!Tdfa_thermal.Params}: cores abut along an edge of [rows] (or
    [cols]) register cells, and parallel thermal paths add, so the
    core-to-core lateral conductance is the per-cell lateral
    conductance times the shared edge length, and the core-to-ambient
    vertical conductance is the per-cell vertical conductance times the
    number of cells in the core. *)

open Tdfa_floorplan
open Tdfa_thermal

type t

val max_cores : int
(** 1024: the largest chip {!make} and {!geometry_of_string} accept. *)

val make : ?params:Params.t -> ?core:Layout.t -> rows:int -> cols:int -> unit -> t
(** A chip of [rows x cols] cores. [core] is the register-file layout
    every core carries (the standard 8x8 register file by
    default); [params] defaults to {!Params.default}. Precomputes the
    two cosine bases and the eigenvalue table: O(rows² + cols²)
    memory.
    @raise Invalid_argument on a non-positive grid (via [Layout.make])
    or one of more than {!max_cores} cores. *)

val grid : t -> Layout.t
(** The core grid itself — one layout cell per core. *)

val core : t -> Layout.t
(** The register-file layout each core carries. *)

val params : t -> Params.t
val num_cores : t -> int
val ambient_k : t -> float

val core_vertical_w_per_k : t -> float
(** Core-to-ambient conductance: per-cell vertical conductance times
    cells per core. Also the coefficient that turns a steady RF
    temperature rise back into sustained power (see {!Task}). *)

val core_lateral_w_per_k : t -> float
(** Core-to-core conductance: per-cell lateral conductance times the
    mean edge length of a core, in cells. *)

val cell_vertical_w_per_k : t -> float
(** The per-cell vertical conductance of [params], the within-core
    counterpart of {!core_vertical_w_per_k}. *)

val neighbors : t -> int -> int list
(** 4-connected neighbouring cores, in [Layout.neighbors] order. *)

val solve : t -> power:float array -> float array
(** Steady per-core temperatures under per-core sustained [power] (W):
    the exact solution of [G (T - ambient) = power], by projecting
    [power] onto the cosine basis, dividing by the eigenvalues and
    projecting back — four dense products, O(n (rows + cols)). It agrees
    with a Gauss–Seidel solve of the same network to round-off (the
    test battery bounds the gap at 1e-8 K against a 1e-12 K-tolerance
    sweep). Deterministic: fixed operation order. Returns a fresh array
    of length [num_cores].
    @raise Invalid_argument when [power] length differs from
    [num_cores]. *)

val geometry_of_string : string -> (int * int, string) result
(** Parse a ["ROWSxCOLS"] chip geometry (e.g. ["2x2"], ["4x4"]);
    [Error] explains a malformed or non-positive spec, or one of more
    than {!max_cores} cores. *)

val geometry_to_string : t -> string
