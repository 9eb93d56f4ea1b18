(** Bit-level lowering of netlist nodes: the one bit-blaster.

    Every non-source node kind is lowered once, here, over an abstract bit
    algebra.  {!Lits} instantiates it on SAT literals with a structurally
    hashed gate library; {!Equiv} encodes its depth-0 miters with it and
    [Mc.Blast] every time step of its unrollings.  {!Equiv}'s block
    simulator instantiates {!Make} on machine words, one pattern per bit.
    The sweep classifies nodes by the one and proves them with the other,
    and the model checker encodes with the gates the sweep proves with, so
    none of them can disagree about what a node computes. *)

module type BITS = sig
  type ctx
  type bit

  val one : ctx -> bit
  val neg : bit -> bit
  val conj : ctx -> bit -> bit -> bit
  val disj : ctx -> bit -> bit -> bit
  val xor : ctx -> bit -> bit -> bit
  val mux : ctx -> bit -> bit -> bit -> bit
  (** [mux c sel on_true on_false]. *)
end

module Make (B : BITS) : sig
  val const : B.ctx -> Bitvec.t -> B.bit array
  (** The bits of a constant, LSB first. *)

  val node : B.ctx -> (Netlist.signal -> B.bit array) -> Netlist.node -> B.bit array
  (** [node c get nd] is the bits of node [nd], LSB first, given its
      operands' bits [get].  Sources (inputs and registers) have no
      lowering and raise [Invalid_argument], as does an unconnected wire.
      Add and Sub are ripple-carry adders, Mul is shift-and-add truncated to
      the operand width, Ult and Slt scan from the LSB with one mux per
      bit.  The gate calls are made in a fixed order: on literals that
      order is the CNF's variable numbering. *)
end

(** The gate library on solver literals.  Gates fold constants and trivial
    operands first.  AND and XOR gates are structurally hashed: keyed on
    their operands (XOR with both signs folded out, so its four polarity
    variants share one variable), so an identical subterm anywhere in the
    solver's lifetime maps to one literal.  A mux is one fresh variable
    with six clauses over its (hashed) operands, never hashed itself.
    Every gate is a permanent definition, so cached literals stay valid
    across incremental solves. *)
module Lits : sig
  type t

  val create : ?cse:bool -> Sat.Solver.t -> t
  (** Allocates the constant-true literal as the solver's next variable.
      [cse] (default [true]) enables the structural hashing; [~cse:false]
      is the plain reference encoding the tests compare against. *)

  val solver : t -> Sat.Solver.t
  val fresh : t -> Sat.Solver.lit
  (** A new unconstrained variable's positive literal. *)

  include BITS with type ctx := t and type bit := Sat.Solver.lit

  val const : t -> Bitvec.t -> Sat.Solver.lit array
  val node : t -> (Netlist.signal -> Sat.Solver.lit array) -> Netlist.node -> Sat.Solver.lit array
  (** {!Make.node} on literals. *)

  val cse_stats : t -> int * int
  (** [(hits, lookups)] of the structural hash; [(0, 0)] when
      [~cse:false]. *)
end
