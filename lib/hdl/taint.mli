(** CellIFT's combinational cell taint rules (§V-C1), written once over a
    taint domain.

    Two domains apply them.  {!Ift.instrument} takes netlist signals as
    taint words and builds the shadow logic of each cell in the netlist
    itself.  {!Analysis.taint_reach} takes bit masks and over-approximates
    that logic without simulating it: its value facts contain every
    runtime value, so its masks contain every bit the instrumented design
    can taint — when both use the same [precise] mode.

    The precise rules are value-aware for AND/OR/MUX cells: an AND output
    bit takes an input's taint only where the other input may be 1 (or is
    tainted itself), an OR output only where it may be 0, and a mux passes
    the taint of the arm its select chooses, plus the arms' disagreement
    and taint when the select is tainted.  The imprecise rules degrade
    those cells to taint union.  Inverters, XORs, slices and concatenations
    route taint bit for bit; arithmetic taints the whole word and a
    comparison or reduction its single bit when any operand bit is
    tainted (the source of the paper's §VII-B1 over-taint false
    positives). *)

(** A taint word is a per-bit taint vector of some signal: bit [i] set
    means bit [i] of the signal is (or may be) tainted. *)
module type DOMAIN = sig
  type t

  val logor : t -> t -> t
  val logand : t -> t -> t

  val any : t -> t
  (** 1 bit: some bit of the word is set. *)

  val replicate : t -> int -> t
  (** [replicate b w] copies the 1-bit word [b] across [w] bits. *)

  val extract : hi:int -> lo:int -> t -> t

  val concat : t list -> t
  (** The head holds the most significant bits, as in {!Netlist.Concat}. *)

  val may_be_one : Netlist.signal -> t
  (** The bits of a signal that may be 1. *)

  val may_be_zero : Netlist.signal -> t
  (** The bits of a signal that may be 0. *)

  val may_differ : Netlist.signal -> Netlist.signal -> t
  (** The bits where two signals of equal width may differ. *)

  val choose : sel:Netlist.signal -> t -> t -> t
  (** [choose ~sel a b]: the taint a mux on the 1-bit [sel] passes from
      its true arm's taint [a] and its false arm's taint [b]. *)
end

module Make (D : DOMAIN) : sig
  val comb :
    precise:bool ->
    width:int ->
    (Netlist.signal -> D.t) ->
    Netlist.kind ->
    D.t option
  (** [comb ~precise ~width taint kind] is the taint word of a [width]-bit
      node of [kind], given the taint word of each operand.  [None] for a
      node that is no combinational cell: an input, a constant, a register
      or an unconnected wire. *)
end
