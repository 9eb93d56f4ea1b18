(** Known-bits µLint pass (A401–A406).

    Runs the {!Hdl.Absint} abstract interpretation — the same dataflow the
    synthesis prune and SAT-simplification clients consume — and reports
    logic it proves degenerate in {e every} reachable state from reset:
    - [A401] (info): a named combinational signal stuck at one value yet
      not structurally constant (the fixpoint is needed to see it).
    - [A402] (info): a mux whose select is invariant — one arm is dead.
    - [A403] (info): an Eq/Ult/Slt comparison with a foregone outcome
      although neither operand is a literal constant.
    - [A404] (info): an extract discarding bits proven 1 — a truncation
      that is provably lossy.
    - [A405] (info): a register proven stuck at its reset value — it never
      toggles.
    - [A406] (info): a register enable proven always-1 — the hold path is
      dead.

    The pass returns no diagnostics on netlists {!Hdl.Netlist.validate}
    rejects (e.g. combinationally cyclic ones): reporting those is the
    structural pass's job.  Any other exception from the fixpoint
    propagates. *)

val run : Designs.Meta.t -> Diagnostic.t list
