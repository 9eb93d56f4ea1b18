(** Simulation-guided SAT sweeping (fraig-style equivalence reduction).

    Combinational nodes are treated as functions of the netlist's primary
    inputs and register outputs.  64 random patterns partition them into
    candidate equivalence classes (1-bit nodes additionally pair up with
    their complements); incremental miter queries on {!Sat.Solver} then
    prove or refute each candidate, with every refutation yielding a
    counterexample pattern that refines the partition, to a fixpoint.

    Patterns are simulated a block at a time (Mishchenko et al., "FRAIGs",
    2005): each node's trace is a set of bit-planes, one OCaml int per bit
    of the node per block of up to 62 patterns, so one word operation
    simulates a whole block.  The planes and the miter CNF come from one
    bit-level lowering of the node kinds, {!Lower}, instantiated here on
    pattern words and used on solver literals through {!Lower.Lits}, the
    gate library [Mc.Blast] also unrolls; so the sweep's simulation, its
    encoding and the model checker's encoding cannot disagree.  Two ordering rules make the block
    simulation invisible to the SAT side — the same queries in the same
    order, hence the same classes, merges and statistics as simulating
    each pattern on its own:
    - counterexamples found while refining classes are buffered and
      simulated as one batch before the next partition;
    - a counterexample found while proving constants is simulated before
      the next constant candidate is examined.

    Proven classes are merged by a deterministic representative rule:
    the lowest node id wins.  Ports (inputs), registers, named signals —
    which covers everything a µFSM/IFR metadata sidecar can reference,
    since sidecars resolve signals by name — and caller-supplied extra
    signals are {e merge barriers}: they may anchor a class (serve as its
    representative for lower-id'd duplicates to merge into is not possible
    since barriers keep their position; rather, duplicates {e of} them are
    redirected onto them) but are never themselves rewritten away, so the
    observable semantics of the design are untouched.

    The pass also proves constants: a candidate whose value is invariant
    under every pattern is checked against that constant, and proven
    constants merge into a [Const] node — strictly stronger than the
    known-bits analysis ({!Absint}), which only propagates structural
    constants. *)

type cls = {
  rep : Netlist.signal;  (** Lowest-id member: the representative. *)
  members : (Netlist.signal * bool) list;
      (** Other proven-equal members, sorted by id.  The flag is [true]
          when the member equals the {e complement} of the representative
          (1-bit classes only). *)
  const_value : Bitvec.t option;
      (** When the class is additionally proven equal to a constant. *)
}

type stats = {
  comb_nodes : int;  (** Combinational (non-source, non-wire) nodes. *)
  candidates : int;  (** Sweepable subset: unnamed and not a barrier. *)
  classes : int;  (** Proven classes that produced at least one merge. *)
  merged : int;  (** Candidates rewritten away. *)
  complement_merged : int;  (** Merges through an inverter. *)
  const_merged : int;  (** Merges onto a proven constant. *)
  vetoed : int;
      (** Proven merges abandoned because applying them would have created
          a combinational cycle through a wire's forward driver. *)
  sat_queries : int;
  sat_refuted : int;  (** Queries whose counterexample refined the classes. *)
  sat_unknown : int;  (** Conflict-budget exhaustions; candidate not merged. *)
  patterns : int;  (** Simulation patterns used, including counterexamples. *)
}

val analyze :
  ?barriers:Netlist.signal list ->
  Netlist.t ->
  cls list * stats
(** Prove equivalence classes without rewriting the netlist (the µLint
    client).  64 random patterns seed the classes, and 10,000 conflicts
    bound each miter query; [barriers] adds extra merge barriers on top of
    the built-in rule.  Classes are sorted by representative id.  The
    netlist must validate. *)

val reduce :
  ?barriers:Netlist.signal list ->
  Netlist.t ->
  Netlist.t * Netlist.signal array * stats
(** Sweep: returns the reduced netlist together with the total mapping
    [image] — [image.(old_id)] is the signal in the new netlist carrying
    the same value — and merge statistics.  Every named signal, input and
    register survives under its own name; node ids are renumbered densely.
    Merges that would create a combinational cycle (possible because wire
    drivers may point forward) are vetoed deterministically and counted. *)

(** {1 Block simulation}

    The sweep's trace store, exposed so it can be tested against
    {!Netlist.eval_node}. *)

type traces
(** Every node's value on every pattern appended so far. *)

val traces : Netlist.t -> traces
(** An empty store.  The netlist must validate. *)

val add_pattern : traces -> (Netlist.signal -> Bitvec.t) -> unit
(** [add_pattern t f] appends one pattern in which source [s] (an input
    or register) takes the value [f s].  [f] is called once per source, in
    ascending id order.  Simulation is deferred to the next {!value}. *)

val value : traces -> Netlist.signal -> int -> Bitvec.t
(** [value t s p] is node [s]'s value on pattern [p], counted from 0. *)
