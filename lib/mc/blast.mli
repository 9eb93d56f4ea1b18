(** Incremental bit-blasting of a netlist into a SAT solver.

    An [unrolling] maintains, inside one {!Sat.Solver.t}, a time-indexed copy
    of a netlist's combinational logic plus its register transition relation.
    Each signal bit at each time step maps to a SAT literal.  The unrolling
    is extended lazily with {!ensure_depth}; thousands of cover properties
    over the same design share one unrolling (and its learned clauses),
    which is what makes the paper's property-count workloads tractable.

    Two initial-state modes support the two proof engines:
    - [`Reset]: registers take their reset value at time 0 ([Init_symbolic]
      registers get free variables) — used by BMC from the valid reset state
      (§V-B).
    - [`Free]: all registers are unconstrained at time 0 — used by the
      inductive step of k-induction. *)

type t

val create :
  ?known:(Bitvec.t * Bitvec.t) array ->
  ?cse:bool ->
  initial:[ `Reset | `Free ] ->
  assumes:Hdl.Netlist.signal list ->
  Hdl.Netlist.t ->
  t
(** [assumes] are 1-bit signals constrained to 1 at {e every} unrolled time
    step.

    [known] optionally supplies per-signal known-bits invariants
    ({!Hdl.Absint.known_bits} of the same netlist): proven bits encode as
    the constant true/false literal instead of fresh variables — a fully
    proven node builds no gates at all — and constant folding in the gate
    library then shrinks everything downstream, on top of [cse].  Sound
    under [`Reset] because the invariants hold in every reachable state
    from reset at every cycle (there the substitution is also subsumed by
    per-step folding of the reset constants, so it never changes the
    encoding); sound under [`Free] because the known-bits fixpoint is an
    {e inductive} invariant — closed under the transition relation from
    any conforming state — so the substitution restricts the free initial
    state exactly to the invariant, the standard strengthening of
    k-induction.  The [`Free] unrolling is where the CNF actually shrinks
    (free registers' proven bits stop being variables), and where the
    strengthening can prove covers unreachable that plain induction
    cannot, so it is the only one {!Checker} passes [known] to.

    Every combinational node goes through {!Hdl.Lower}, the bit-level
    lowering {!Hdl.Equiv} also encodes its miters with; this module adds
    only the time frames, the sources (fresh inputs per step, register
    init and enable), the assumes and the known-bits overlay.  [cse]
    (default [true]) enables the gate library's structural hashing: AND
    and XOR gates (and the OR, adders and comparators built on them) are
    keyed on their operand literals with sign normalization and constant
    folding, so identical subterms across time steps and across covers map
    to a single literal instead of being re-encoded.  A mux is one 6-clause
    gate over hashed operands, itself never hashed.  Purely an
    encoding-size optimization: the encoded function is unchanged.  The
    checker always encodes with it; [~cse:false] is the reference encoding
    the tests compare against. *)

val solver : t -> Sat.Solver.t
val depth : t -> int
(** Number of time steps currently encoded (steps [0 .. depth - 1]). *)

val ensure_depth : t -> int -> unit
(** [ensure_depth t k] extends the unrolling so steps [0..k] exist. *)

val lits : t -> Hdl.Netlist.signal -> time:int -> Sat.Solver.lit array
(** The literals of a signal's bits at a time step (LSB first).
    The step must already be encoded. *)

val lit1 : t -> Hdl.Netlist.signal -> time:int -> Sat.Solver.lit
(** The literal of a 1-bit signal. *)

val model_value : t -> Hdl.Netlist.signal -> time:int -> Bitvec.t
(** Read a signal's value from the most recent satisfying model. *)

val cse_stats : t -> int * int
(** [(hits, lookups)] of the structural-hashing cache; [(0, 0)] when
    [cse:false].  The hit rate measures how much encoding was shared. *)

val add_state_distinct : gate:Sat.Solver.lit -> t -> int -> int -> unit
(** [add_state_distinct ~gate t i j] adds a clause forcing the register
    states at times [i] and [j] to differ while [gate] is true — the
    simple-path constraint that makes k-induction complete for finite
    systems.  The clause carries [¬gate], so the constraint binds only the
    queries that assume [gate]; the XOR gates that compare the two states
    stay plain definitions.  A solver shared across queries of different
    depths assumes [gate] exactly when frame [j] belongs to the query: an
    ungated constraint on a frame beyond a later query's depth would
    wrongly constrain that query. *)
