(** Word-level netlist intermediate representation.

    A netlist is a table of nodes.  Each node produces one signal of a fixed
    width.  Sequential elements are registers ([Reg]) whose [next] input may
    be connected after creation, permitting feedback loops; similarly [Wire]
    nodes are forward declarations for combinational feedback-free loops
    (an unconnected or combinationally-cyclic design is rejected by
    {!validate}).

    This IR plays the role SystemVerilog-after-elaboration plays for the
    paper's tools: the static analyses (combinational connectivity, cone of
    influence), the simulator, the bit-blaster, and the IFT instrumentation
    all consume it. *)

type signal = int
(** Index of a node in its netlist.  Exposed as [int] so client layers
    (simulator, bit-blaster) can use signals as array indices directly. *)

type op2 =
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Eq  (** 1-bit result *)
  | Ult (** unsigned less-than, 1-bit result *)
  | Slt (** signed less-than, 1-bit result *)

type init =
  | Init_value of Bitvec.t
  | Init_symbolic
     (** Architectural state is symbolically initialized (§V-B): the model
          checker treats the reset value as free; the simulator draws it
          randomly. *)

type kind =
  | Input
  | Const of Bitvec.t
  | Reg of { init : init; mutable next : signal option; mutable enable : signal option }
     (** When [enable] is connected, the register keeps its value on cycles
          where the enable signal is 0. *)
  | Wire of { mutable driver : signal option }
  | Not of signal
  | Op2 of op2 * signal * signal
  | Mux of { sel : signal; on_true : signal; on_false : signal }
  | Extract of { hi : int; lo : int; arg : signal }
  | Concat of signal list (** Head holds the most significant bits. *)
  | ReduceOr of signal  (** 1-bit: OR of all bits. *)
  | ReduceAnd of signal (** 1-bit: AND of all bits. *)

type node = { id : signal; width : int; kind : kind; name : string option }

type t

val create : string -> t
val name : t -> string

val copy : t -> t
(** A deep copy: fresh register and wire records, a copied name table and
    the same node ids, so the copy has the same {!digest}.  Extending or
    connecting the copy leaves the original untouched, and copying is far
    cheaper than elaborating or importing the design again. *)

val node : t -> signal -> node
val width : t -> signal -> int
val num_nodes : t -> int
val iter_nodes : t -> (node -> unit) -> unit
val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val find_named : t -> string -> signal option
(** Look a node up by its (unique) name. *)

(** {1 Node creation} *)

val input : t -> string -> int -> signal
val const : t -> Bitvec.t -> signal
val reg : t -> ?enable:signal -> name:string -> init:init -> width:int -> unit -> signal
val wire : t -> ?name:string -> int -> signal

val connect_reg : t -> signal -> signal -> unit
(** [connect_reg t r next] connects the D input of register [r].
    Raises if [r] is not a register, is already connected, or widths differ. *)

val connect_enable : t -> signal -> signal -> unit
val connect_wire : t -> signal -> signal -> unit

val not_ : t -> signal -> signal
val op2 : t -> op2 -> signal -> signal -> signal
val mux : t -> sel:signal -> on_true:signal -> on_false:signal -> signal
val extract : t -> hi:int -> lo:int -> signal -> signal
val concat : t -> signal list -> signal
val reduce_or : t -> signal -> signal
val reduce_and : t -> signal -> signal

val set_name : t -> signal -> string -> unit
(** Name (or rename) a node; names must be unique within the netlist. *)

(** {1 Validation and ordering} *)

val validate : t -> unit
(** Check every register and wire is connected and that combinational logic
    is acyclic.  Raises [Failure] otherwise; the message lists {e every}
    problem — each unconnected register/wire and each combinational cycle —
    with node ids and names, so one failure carries the full repair list. *)

val comb_sccs : t -> signal list list
(** Nontrivial strongly connected components of the combinational dependency
    graph: each is a set of nodes forming at least one combinational cycle
    (more than one node, or a single node reading itself).  Empty on a valid
    netlist.  Members are sorted by id. *)

val comb_order : t -> signal array
(** Topological order of all nodes for single-pass combinational evaluation:
    registers, inputs and constants first, then combinational nodes in
    dependency order.  Requires a validated netlist. *)

val comb_fanin : t -> signal -> signal list
(** Direct combinational inputs of a node (registers and inputs have none —
    they are sequential/primary sources). *)

val eval_node : t -> (signal -> Bitvec.t) -> signal -> Bitvec.t
(** [eval_node t value s] is the value of node [s] in a cycle where each
    operand [o] has value [value o]: the word-level semantics of every
    [kind], and the reference the simulator is tested against.  A source
    ([Input] or [Reg]) has no operands and reads [value s], the value its
    environment gave it.  Raises [Invalid_argument] on an unconnected
    [Wire]. *)

val comb_cone : t -> signal list -> (signal, unit) Hashtbl.t
(** Transitive combinational fan-in of the given signals, stopping at
    registers and inputs (which are included in the cone as sources).
    This is the static netlist analysis RTL2MμPATH uses to find candidate
    happens-before edges (§V-B5). *)

val registers : t -> signal list
val inputs : t -> signal list

(** {1 Digest} *)

val digest : t -> string
(** Hex digest of the elaborated structure: every node's id, width, name,
    kind, operand wiring, constant values, and register initialization.
    A pure function of construction order, so independently elaborated
    copies of the same design digest identically across processes — the
    design component of the verdict-cache key ({!Mc.Checker}).

    Memoized per instance: the first call walks the node table, repeated
    calls on an unmutated netlist are O(1).  Any mutation (adding a node,
    naming one, connecting a register/enable/wire) invalidates the cache. *)
