(** Cover-property checking — the model-checking service RTL2MµPATH and
    SynthLC drive (§V-B).

    A cover property asks whether some execution trace, starting from a
    valid reset state and subject to per-cycle assumption signals, reaches a
    cycle where a conjunction of 1-bit literals holds.  Outcomes mirror the
    paper's: [Reachable] (with a witness), [Unreachable] (with a proof
    kind), [Undetermined] (budgets exhausted — §VII-B3).

    Engines, cheapest first: constrained-random simulation (a hit proves
    reachability), incremental BMC over a shared unrolling (thousands of
    properties on the same design share one solver and its learned
    clauses), k-induction with simple-path constraints (a genuine
    unreachability proof), and finally a bounded-unreachable verdict when
    the BMC depth is exhausted cleanly — the analogue of the paper's
    undetermined-as-unreachable configuration (§VII-B4).  k-induction also
    shares one free-state unrolling across properties, built on the first
    induction attempt: frame [j >= 1] holds its assumes and its
    simple-path constraints only under its own gate literal, so a query at
    depth [k] sees exactly the formula of a fresh [(k+1)]-frame unrolling,
    and each property's hypotheses are retired after its attempt.

    Conflict budgets are per solve, but both solvers are shared by every
    property a checker sees, so whether a solve overruns its budget also
    depends on the learned clauses and variable activity that earlier
    properties left: on the property order, the shard partition and which
    properties hit the cache.  An induction overrun hands the property to
    BMC, so one induction would have proved reports [Bounded] instead of
    [Inductive k]; a traced run's [checker.ind_overruns] counter (the
    induction solves that overran) is 0 when no proof kind was lost that
    way.

    The SAT engines can run on an equivalence-swept copy of the netlist
    ({!config.sweep}): {!Hdl.Equiv.reduce} merges proven-equivalent
    combinational nodes before encoding, and every query crosses the
    total old→new signal map at the boundary.  A witness ({!Cex}) is the
    trace's free variables, from which a simulator recomputes every other
    signal; BMC witnesses are {e canonical} — minimal hit time, then
    lexicographically-minimal free variables — so the reported trace
    depends only on the design's semantics, never on the encoding the
    solver searched; that is what keeps report digests bit-identical
    across sweep modes.

    The free variables are the symbolic-init register bits in
    {!Hdl.Netlist.registers} order, then the input bits of cycles
    [0..hit] time-major in {!Hdl.Netlist.inputs} order, each LSB first;
    the witness is the assignment that prefers 0 earliest in that order.
    It is found by galloping: one solve tries to zero a block of bits
    that doubles after a success and halves after a failure.  A solve
    that overruns its conflict budget is treated as a failure, so the
    witness is the exact lexicographic minimum whenever a traced run's
    [checker.canon_overruns] counter is 0 ([checker.canon_solves] counts
    every solve the canonicalization makes; these counters and
    [checker.ind_overruns] are off by default and outside every
    digest). *)

module Cex : sig
  type t = {
    init : Bitvec.t array;
        (** Each symbolic-init register's value at cycle 0, in
            {!Hdl.Netlist.symbolic_registers} order. *)
    inputs : Bitvec.t array array;
        (** [inputs.(c)]: every input's value on cycle [c], in
            {!Hdl.Netlist.inputs} order.  The cover holds on the last
            cycle. *)
  }
  (** A witness: the free variables of an execution that reaches the
      cover.  Replayed on {!Sim} — {!Sim.reset}, {!Sim.poke_reg} of
      [init], then per cycle {!Sim.poke} of the cycle's inputs before
      {!Sim.eval} — they give every signal its value on every cycle. *)

  val length : t -> int
  (** Cycles, the hit cycle included. *)

  val equal : t -> t -> bool
  (** Bit-identical free variables — the comparison the sweep audit
      applies. *)
end

type proof =
  | Inductive of int  (** k-induction succeeded at this k. *)
  | Bounded of int  (** No witness within this BMC depth; no budget overrun. *)

type outcome = Reachable of Cex.t | Unreachable of proof | Undetermined

val outcome_tag : outcome -> string

module Stats : sig
  type t = {
    mutable n_props : int;
    mutable n_reachable : int;
    mutable n_unreachable : int;
    mutable n_undetermined : int;
    mutable n_sim_discharged : int;
    mutable n_inductive : int;
    mutable n_cache_hits : int;
        (** Verdicts served from the attached {!Vcache.t}. *)
    mutable n_cache_misses : int;
        (** Verdicts computed and stored (0 when no cache is attached). *)
    mutable total_time : float;
        (** Seconds spent in {!check_cover}, on the monotonic
            {!Obs.now_ns} clock. *)
  }

  val create : unit -> t

  val merge : t -> t -> t
  (** Field-wise sum, as a fresh record — the aggregation point for
      per-shard and per-task checker instances. *)

  val copy : t -> t
  (** A snapshot: a fresh record with the same totals.  Use when exposing
      stats from a live checker, so later checking cannot mutate what the
      caller already holds. *)

  val mean_time : t -> float
  (** Mean seconds per property (0 when no properties were checked). *)

  val pct_undetermined : t -> float
  (** Percentage of properties left undetermined (0 when none checked). *)

  val hit_rate : t -> float
  (** [n_cache_hits / (n_cache_hits + n_cache_misses)] — the rate over
      cache {e lookups}, so stats merged in from checkers with no cache
      attached do not dilute it (0 when no lookups happened). *)

  val pp : Format.formatter -> t -> unit
end

type sweep_mode =
  | Sweep_off  (** Encode the netlist as given. *)
  | Sweep_on
      (** SAT-sweep the netlist ({!Hdl.Equiv.reduce}) before encoding;
          both the BMC unrolling and the induction unrolling run on the
          reduction, with queries translated through the signal map. *)
  | Sweep_audit
      (** Compute with the swept engine {e and} re-run every
          SAT-resolved query on an unswept shadow engine.  Any verdict
          divergence — or, for reachable covers, any difference between
          the two canonical witnesses — raises [Failure]: the sweep
          changed an outcome, which is a soundness bug.  Audit never
          serves verdicts from the cache (it must run both engines) but
          still stores what it computes.  Proof kinds are not compared:
          known-bits strength can legitimately differ between the two
          encodings, turning an inductive proof into a bounded one, and
          proof kinds are not part of any report digest. *)

val sweep_mode_tag : sweep_mode -> string
(** ["off"] / ["on"] / ["audit"]. *)

type config = {
  bmc_depth : int;
  bmc_conflicts : int;
  induction_max_k : int;  (** 0 disables k-induction. *)
  induction_conflicts : int;
  sim_episodes : int;  (** 0 disables the simulation pre-pass. *)
  sim_cycles : int;
  seed : int;
  sweep : sweep_mode;
      (** Equivalence-sweep the netlist the SAT engines encode (default
          {!Sweep_off}).  Verdicts, witnesses and hence report digests
          are bit-identical across all three modes — witnesses are
          canonical, the sim pre-pass always runs on the original
          netlist, and audit is on-plus-tripwire.  The cache key
          therefore carries only the effective boolean (audit keys as
          on). *)
}

val default_config : config
(** Every field reaches the verdict-cache key ([sweep] as its effective
    boolean): the key function destructures the whole record, so a field
    added without a place in the key fails the build. *)

type t

val create :
  ?cache:Vcache.t ->
  ?cache_salt:string ->
  ?stimulus:(Sim.t -> int -> unit) ->
  ?config:config ->
  ?sweep_barriers:Hdl.Netlist.signal list ->
  assumes:Hdl.Netlist.signal list ->
  Hdl.Netlist.t ->
  t
(** [assumes] are 1-bit signals pinned true on every cycle (SVA [assume]);
    [stimulus] optionally drives the simulation pre-pass (unpoked inputs
    are randomized by the caller's own logic); traces violating an
    assumption are discarded.

    [cache] attaches a persistent verdict store: each {!check_cover} is
    keyed by a digest of (netlist structure, assumption signals, every
    [config] field including the seed, [cache_salt], cover literals) and
    served from the store when present.  Netlists that differ in
    structure never share a key, however alike they behave.  A cached
    verdict replays exactly as the cold run computed it — the witness's
    free variables, sim-discharged accounting, and the RNG draws the sim
    pre-pass consumed — so a run whose properties all hit is
    bit-identical to the run that filled the store.  [cache_salt] must
    identify any verdict-relevant input the checker cannot see.  Only
    {!Synthlc.Flow} sets one, for imprecise IFT; every caller derives
    [stimulus] from the design and from the instructions its monitored
    netlist already encodes.

    [sweep_barriers] are extra signals the equivalence sweep must never
    merge away (named signals, registers and inputs are always barriers);
    callers pass every metadata-referenced signal, belt and braces on top
    of those signals being named.  Ignored when [config.sweep] is
    {!Sweep_off}.

    The induction unrolling substitutes the {!Hdl.Absint.known_bits}
    invariants of the netlist it encodes as constant literals: the
    known-bits fixpoint is an inductive invariant, so this is the
    standard strengthening of k-induction, shrinking the free-initial
    unrolling (the [sat.ind_vars] counter of a traced run: every variable
    the induction unrolling allocates, its creation included) and letting
    induction discharge covers plain induction cannot.  The reset-state
    BMC unrolling does without: per-step folding of the reset constants
    already subsumes them there.

    [create] only validates: it raises [Invalid_argument] when
    [config.bmc_depth] is negative and [Failure] when the netlist does not
    {!Hdl.Netlist.validate}.  The SAT engine (the sweep and the BMC
    encoding) and the audit shadow are built by the first {!check_cover}
    that reaches the SAT phases, and the known-bits fixpoint with the
    induction unrolling by the first induction attempt, so a checker
    whose covers all hit the cache builds none of them, and an error in
    the sweep, known bits or encoding surfaces from that first miss.  The
    netlist must not change after [create]. *)

val check_cover : ?name:string -> t -> (Hdl.Netlist.signal * bool) list -> outcome
(** [check_cover t lits] searches for a cycle where every [(signal,
    polarity)] literal holds simultaneously.  Signals are those of the
    {e original} netlist whatever the sweep mode.  In audit mode, raises
    [Failure] if the swept and unswept engines ever disagree. *)

val stats : t -> Stats.t
