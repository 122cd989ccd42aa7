(** Procedures: a name, parameters and an ordered list of basic blocks.
    The first block is the entry. All CFG queries live here. *)

type t = private { name : string; params : Var.t list; blocks : Block.t list }

val make : name:string -> params:Var.t list -> Block.t list -> t
(** Raises [Invalid_argument] when the block list is empty or labels are
    duplicated. *)

val entry : t -> Block.t
val entry_label : t -> Label.t

val find_block : t -> Label.t -> Block.t
(** @raise Not_found when no block carries the label. *)

val mem_block : t -> Label.t -> bool
val labels : t -> Label.t list

val successors : t -> Label.t -> Label.t list
val predecessors : t -> Label.t -> Label.t list
(** Order follows block order, a block once per edge. One scan of every
    block per call: analyses that ask for many blocks use
    {!predecessor_table}. *)

val predecessor_table : t -> Label.t list Label.Tbl.t
(** Every label's {!predecessors} from one pass over the blocks; a label
    without predecessors has no entry. *)

val postorder : t -> Label.t list
(** Depth-first postorder over blocks reachable from the entry. *)

val reverse_postorder : t -> Label.t list

val reachable : t -> Label.Set.t

val instr_count : t -> int
(** Number of body instructions (terminators excluded). *)

val iter_instrs : (Label.t -> int -> Instr.t -> unit) -> t -> unit
val fold_instrs : ('a -> Label.t -> int -> Instr.t -> 'a) -> 'a -> t -> 'a

val map_blocks : (Block.t -> Block.t) -> t -> t
val replace_block : t -> Block.t -> t
(** Replace the block with the same label. *)

val defined_vars : t -> Var.Set.t
(** Parameters plus every variable defined by an instruction. *)

val all_vars : t -> Var.Set.t
(** Every variable mentioned anywhere in the function. *)

val pp : Format.formatter -> t -> unit
