(** Static netlist analyses beyond {!Netlist}'s cone/order primitives.

    These back the µLint passes (structural and reachability) and the
    static cover-pruning pre-pass of µPATH synthesis: constant folding,
    observability (dead cells), and an abstract interpretation that
    over-approximates the reachable state set of a µFSM's state
    registers. *)

val const_values : Netlist.t -> Bitvec.t option array
(** Per-signal constant value, when one exists: [Some v] for nodes whose
    value is determined by the netlist structure alone (constants and
    combinational logic over them; a mux with a constant selector folds
    through the taken branch even if the other branch is not constant, and
    an extract folds through Concat/Extract/Wire/Not chains whenever the
    {e selected} bits land on constant parts, even if the whole source word
    does not fold).  Registers and inputs are never constant.  Tolerates
    unconnected and cyclic nodes (they fold to [None]). *)

val constant_foldable : Netlist.t -> Netlist.signal list
(** Non-[Const] combinational nodes whose value [const_values] proves
    constant — logic a synthesizer would fold away, and a µLint finding. *)

val dead_cells : Netlist.t -> roots:Netlist.signal list -> Netlist.signal list
(** Nodes outside the liveness closure of [roots], where the closure
    follows combinational fan-in and the sequential inputs (next/enable)
    of registers.  With roots = registers + named signals + annotated
    signals this is exactly "not in the cone of influence of any output,
    register, or annotated signal": such nodes cannot influence anything
    observable.  Sorted by id. *)

val taint_reach :
  ?precise:bool ->
  ?known:(Bitvec.t * Bitvec.t) array ->
  ?blocked:Netlist.signal list ->
  sources:Netlist.signal list ->
  Netlist.t ->
  Bitvec.t array
(** Over-approximate word-level taint dataflow on the un-instrumented
    netlist: seed every [sources] register all-tainted, propagate per-bit
    may-taint masks through the combinational cones by the cell rules of
    {!Taint}, the ones [Ift.instrument] builds (value-aware AND/OR/MUX when
    [precise], taint-union otherwise), and across register steps to a
    fixpoint.  [blocked] registers are kill sites — their masks are pinned
    to zero (unless also a source; injection wins, as in [Ift]) — and a
    register behind an enable whose mask is nonzero degrades to
    all-tainted ([Ift] rejects enables; the static rule stays sound for
    designs it cannot instrument).

    Returns one mask per signal, indexed by signal id: bit [i] set means
    taint {e may} reach bit [i] of that signal on some cycle of some
    execution.  {b Soundness}: the mask contains every bit the
    [Ift]-instrumented design can dynamically taint under any inject
    condition, flush schedule, and stimulus — {e when the instrumentation
    uses the same [precise] mode}.  The precise static rules are not sound
    against the imprecise dynamic rules (a constant-0 AND operand stops
    taint statically that the union rule propagates), so analyze with the
    precision you instrument with.  A µFSM state variable or PCR whose mask
    is zero can never become tainted, so IFT covers requiring its taint may
    be discharged as unreachable without the model checker.

    The precise rules read what each signal may hold from a per-bit
    envelope: [known] ({!Absint.known_bits} of the same netlist) when
    given, else {!const_values} lifted to fully-known words.  Every runtime
    value lies inside either, so the masks stay an over-approximation;
    [known] kills more propagation paths.  Ignored when [precise] is
    false. *)

val taint_reaches : Bitvec.t array -> Netlist.signal -> bool
(** [taint_reaches (taint_reach ...) s]: some bit of [s] may carry taint. *)

val fsm_reachable :
  ?known:(Bitvec.t * Bitvec.t) array ->
  Netlist.t ->
  vars:Netlist.signal list ->
  Bitvec.t list option
(** Over-approximate the reachable joint-state set of the given state
    registers by abstract interpretation over value sets: starting from the
    registers' reset values (a symbolic init contributes every value), each
    step evaluates the next-state cones with the state registers bound to
    their accumulated sets and everything else (inputs, other registers)
    unconstrained, until a fixpoint.  Mux selectors that collapse to a
    single value prune the untaken branch; unknown selectors union both.
    Registers whose enable is provably stuck at 0 keep their reset value.

    Returns the joint valuations with the {e first} variable in the most
    significant bits (the layout [Dsl.concat] gives a harness's
    state-of-µFSM vector), or [None] when the analysis cannot bound the
    domain (a var is not a connected register, widths are too large, or
    value sets blow past the widening cap).  {b Soundness}: a valuation
    absent from [Some set] is truly unreachable in the concrete design
    under {e any} input sequence — environment assumptions only shrink the
    concrete set further — so covers over such states may be discharged
    as unreachable without the model checker.

    [known] optionally supplies known-bits invariants
    ({!Absint.known_bits}): any node the value-set evaluation widens to
    Top — an input, a foreign register, a wide arithmetic result — is then
    bounded by enumerating the completions of its unknown bits (when at
    most {!kb_enum_cap} bits are unknown), letting the product survive
    where the unrefined analysis bails. *)

val kb_enum_cap : int
(** Maximum number of unknown bits [fsm_reachable] enumerates when bounding
    a Top node by its known-bits envelope (2{^ cap} completions). *)
