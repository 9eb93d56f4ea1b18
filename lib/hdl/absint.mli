(** Known-bits abstract interpretation over the word-level IR.

    A forward dataflow analysis on a ternary per-bit lattice: every bit of
    every signal is either proven 0, proven 1, or unknown (⊤).  The result
    abstracts {e every} reachable concrete state from reset, at every
    cycle — including cycle 0 — so a bit reported known is a true invariant
    of the design, usable to discharge covers statically or to freeze unit
    literals before SAT encoding.

    Precision notes: mux arms are killed by (even partially) known selects,
    And/Or/Xor/Not use exact bitwise rules, Extract/Concat route bits,
    Add/Sub/Mul keep the contiguous low bits determined by both operands
    (carries propagate strictly upward), Eq/Ult fold via bit-disagreement
    and unsigned-interval reasoning, and everything else widens to ⊤.
    Primary inputs and [Init_symbolic] registers are unconstrained. *)

(** Abstract value of one signal: bit [i] of [known] set means bit [i] is
    proven equal to bit [i] of [value] in every reachable state.  Unknown
    bits of [value] are normalized to zero. *)
type fact = { known : Bitvec.t; value : Bitvec.t }

val top : int -> fact
(** [top w] is the unconstrained fact of width [w]. *)

val exact : Bitvec.t -> fact
(** [exact v] is the fully-known fact with value [v]. *)

val is_exact : fact -> bool

val join : fact -> fact -> fact
(** Least upper bound: a bit stays known only if both sides know it and
    agree on its value. *)

val fact_equal : fact -> fact -> bool

val transfer : (Netlist.signal -> fact) -> Netlist.node -> fact
(** One cell's transfer function, reading operand facts through the given
    environment.  Registers return their own fact unchanged (the
    register-step join lives in the fixpoint, not here).  Exposed for unit
    tests of individual rules. *)

val analyze : Netlist.t -> fact array
(** Full analysis: register-step fixpoint seeded from reset state, then one
    final combinational sweep.  Requires a validated netlist (acyclic
    combinational logic); register facts only lose known bits across
    rounds, so the fixpoint terminates in at most total-register-bits
    rounds.  Index the result by signal id. *)

val known_bits : Netlist.t -> (Bitvec.t * Bitvec.t) array
(** [analyze] with facts flattened to [(known, value)] pairs — the shape
    the prune, lint, and SAT-simplification clients consume. *)

val stuck_value : (Bitvec.t * Bitvec.t) array -> Netlist.signal -> Bitvec.t option
(** The signal's proven constant value, if every bit is known. *)

val known_zero : (Bitvec.t * Bitvec.t) array -> Netlist.signal -> bool
(** True when the signal is proven identically zero. *)
