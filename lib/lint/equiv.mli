(** Equivalence µLint pass (E501–E503).

    Runs the simulation-guided SAT sweep ({!Hdl.Equiv.analyze}) and
    reports redundancy it {e proves} — not suspects: every finding is
    backed by an UNSAT miter over the combinational logic, so two
    reported nodes compute the same function of the registers and inputs
    on every cycle.

    - [E501] (info): a duplicate logic cone — two or more combinational
      nodes proven to compute the same word.
    - [E502] (info): a complementary duplicate — a 1-bit node proven to
      be the negation of another; the pair collapses to one cone plus an
      inverter.
    - [E503] (info): a node proven constant by the sweep that the
      known-bits analysis ({!Hdl.Absint}) cannot see — redundancy beyond
      [A401]'s reach, since the proof needs a SAT query rather than a
      dataflow fixpoint.

    All three are informational: duplicate logic is legal (and common in
    post-synthesis netlists), but it inflates every downstream encoding.
    The annotated metadata signals are passed as merge barriers, matching
    what a [config.sweep] run would actually merge; an annotation outside
    the netlist (the annotation pass's L101) is left out.

    The pass returns no diagnostics on netlists {!Hdl.Netlist.validate}
    rejects (e.g. combinationally cyclic ones): reporting those is the
    structural pass's job.  Any other exception from the sweep or the
    known-bits fixpoint propagates. *)

val run : Designs.Meta.t -> Diagnostic.t list
