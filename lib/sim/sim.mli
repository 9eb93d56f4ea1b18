(** Cycle-accurate netlist simulator.

    Drives a validated {!Hdl.Netlist.t}: per cycle, inputs are poked,
    combinational logic is evaluated in topological order, outputs observed,
    and registers clocked.  Registers declared [Init_symbolic] receive
    random reset values drawn from the simulator's PRNG — the concrete
    counterpart of the model checker's symbolic initial state.

    {!create} compiles the netlist once into a levelized program: flat
    arrays of opcode, operands and width mask in [Netlist.comb_order], and a
    register table for {!step}.  The program is hash-consed.  A wire shares
    its driver's value slot, and a node whose opcode, width, operand slots
    and immediates repeat an earlier node's (the operands of the commutative
    [And], [Or], [Xor], [Add], [Mul] and [Eq] taken in either order) shares
    that node's slot, so each distinct computation runs once per cycle.
    {!peek}, {!peek_bool} and the register table read every node through
    its representative slot; inputs, registers and wide nodes keep their
    own.  Every node therefore reads the value the netlist semantics give
    it.  Values at most 62 bits wide live unboxed in an [int array]; a
    wider node keeps a [Bitvec.t] value, and it and every node reading it
    are evaluated with {!Hdl.Netlist.eval_node}, node by node in the same
    pass.  Both kinds follow the same [Bitvec] semantics, and {!peek}
    returns a [Bitvec.t] either way.

    An instance is meant to be reused: {!reset} with a seed starts a fresh
    episode without recompiling or reallocating the value arrays.

    The simulator doubles as the cheap pre-pass the model checker uses to
    discharge cover properties (a random trace that hits a cover proves
    reachability without a SAT call), and as the decision harvest of µPATH
    synthesis. *)

type t

val create : ?seed:int -> Hdl.Netlist.t -> t
(** Validates and compiles the netlist; raises if it is malformed.  Every
    node reads as zero until it is poked or evaluated. *)

val netlist : t -> Hdl.Netlist.t

val reset : ?seed:int -> t -> unit
(** Return to cycle 0: zero every node value and input, and re-apply
    register init values, drawing symbolic-init registers from the PRNG in
    node-id order.  With [~seed], the PRNG first restarts from [seed], which
    leaves the instance indistinguishable from [create ~seed] on the same
    netlist; without it, the draws continue the current stream. *)

val poke : t -> Hdl.Netlist.signal -> Bitvec.t -> unit
(** Set an input's value for the current cycle.  Raises if the signal is not
    an [Input] or the width differs. *)

val poke_random_inputs : t -> unit
(** Drive every input with a fresh random value for the current cycle. *)

val poke_reg : t -> Hdl.Netlist.signal -> Bitvec.t -> unit
(** Overwrite a register's current state — used to set up specific
    architectural initial states (e.g. the SC-Safe experiment's
    low-equivalent state pairs).  Raises if the signal is not a register. *)

val eval : t -> unit
(** Evaluate combinational logic from current register and input values. *)

val eval_cone : t -> Hdl.Netlist.signal -> unit
(** Evaluate only the instructions in the signal's combinational cone, from
    current register and input values: the cheap way to read one signal,
    such as a fetch PC, before poking the cycle's inputs.  Afterwards the
    signal and every node in its cone read as after a full {!eval}; only
    the cone's values are current, other nodes may read stale ones until
    the next {!eval}, and {!step} still requires one.  The cone's
    instruction list is computed on first use and cached per signal; its
    instructions run the same step as {!eval}'s.

    The signal need not be a register.  In every built-in design and
    shipped example [fetch_pc] is one, and its cone is the single
    instruction reading its state; but the Yosys importer also names
    combinational nets (public netnames and output ports), so an imported
    design's [fetch_pc] may be logic, whose cone this evaluates too. *)

val peek : t -> Hdl.Netlist.signal -> Bitvec.t
(** Value after the most recent {!eval} (or, for a node in its cone,
    {!eval_cone}).  An input reads what was last poked into it, but a
    register reads its current state only after an {!eval}: after a
    {!reset} it reads zero, whatever its reset or poked state, and after
    a {!step} it reads the previous cycle's state, until the next
    {!eval}. *)

val peek_bool : t -> Hdl.Netlist.signal -> bool
(** [peek] of a 1-bit signal. *)

val step : t -> unit
(** Clock edge: latch register next-state values, advance the cycle count.
    Requires {!eval} to have run for the current cycle. *)

val cycle : t -> int

val run :
  t -> cycles:int -> stimulus:(t -> int -> unit) -> observe:(t -> int -> unit) -> unit
(** [run sim ~cycles ~stimulus ~observe] executes [cycles] clock cycles from
    the current state: the one loop that runs a fixed program.  Per cycle
    [n]: [stimulus sim n] pokes inputs (an input it does not poke keeps its
    value, zero after a {!reset}), logic is evaluated, [observe sim n] reads
    the cycle's values, and the clock steps. *)
