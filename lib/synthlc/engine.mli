(** SynthLC top level (§V): RTL2MµPATH per instruction, candidate-transponder
    detection, symbolic-IFT attribution of decisions to typed transmitters,
    and leakage-signature assembly. *)

type transponder_report = {
  instr : Isa.t;
  synth : Mupath.Synth.result;  (** The µPATH synthesis result. *)
  tagged : Types.tagged_decision list;
  signatures : Types.signature list;
  flow_props : int;
  flow_undetermined : int;
  flow_pruned_static : int;
      (** IFT covers discharged by the static taint pre-pass without checker
          calls.  Differs across {!Mupath.Prune.mode}s (0 under [`Audit]),
          so excluded from {!report_digest}. *)
  flow_pruned_absint : int;
      (** IFT covers discharged {e only} by the known-bits-refined pre-pass
          ({!Hdl.Absint}) — dead refined, live under the base pre-pass.
          Same digest-exclusion rule as [flow_pruned_static]. *)
  static_flow_live : (Types.operand * string list) list;
      (** The static leakage grid: per operand register, the PL labels whose
          µFSMs the operand's taint may reach.  Recomputed independently of
          the Flow pre-pass; every tagged decision is asserted to lie inside
          it.  Excluded from the digest. *)
  flow_time : float;
}

type report = {
  design_name : string;
  transponders : transponder_report list;
  checker_totals : Mc.Checker.Stats.t;
      (** {!Mc.Checker.Stats.merge} over every per-instruction synthesis. *)
  total_mupath_props : int;
  total_flow_props : int;
  total_flow_pruned_static : int;
  total_flow_pruned_absint : int;
      (** Sum of per-transponder [flow_pruned_absint]; excluded from the
          digest. *)
  precise : bool;
      (** IFT cell-rule precision the flow stage ran with.  Part of the
          digest — imprecise runs answer a different question. *)
  jobs : int;  (** Domain count the report was produced with. *)
  elapsed : float;
  metrics : (string * float) list;
      (** {!Obs.Metrics.snapshot} taken at the end of the run; [[]] when
          the obs layer is disabled.  Observability only — excluded from
          {!equal_report} and {!report_digest} (the digest-exclusion
          rule), so tracing a run cannot change its identity. *)
}

val is_secondary : Types.tagged_decision -> bool
(** §VII-A1 secondary-leakage heuristic: a stall-in-place decision
    (destination = source alone) leaks only through shared-resource
    back-pressure. *)

val signatures_of_tagged :
  Isa.t ->
  (string * string list list) list ->
  Types.tagged_decision list ->
  Types.signature list
(** Assemble signatures per decision source; requires at least two tagged
    destinations per source (the paper's footnote 3). *)

val static_leakage_grid :
  precise:bool -> Designs.Meta.t -> (Types.operand * string list) list
(** The static leakage-grid over-approximation for a design: per operand
    register, the PL labels whose member µFSM state (PCR or vars) the
    operand's taint may reach under {!Hdl.Analysis.taint_reach} with the
    ARF/AMEM blocked.  Any decision destination outside the grid can never
    be tagged by a sound flow analysis.  Only reads the design. *)

val run :
  ?cache:Vcache.t ->
  ?config:Mc.Checker.config ->
  ?synth_config:Mc.Checker.config ->
  ?precise:bool ->
  ?prune:Mupath.Prune.mode ->
  ?stimulus:Designs.Stimulus.factory ->
  ?exclude_sources:string list ->
  ?jobs:int ->
  design:(unit -> Designs.Meta.t) ->
  instructions:Isa.t list ->
  transmitters:Isa.opcode list ->
  kinds:Types.transmitter_kind list ->
  revisit_count_labels:string list ->
  iuv_pc:int ->
  unit ->
  report
(** SynthLC over [instructions]: µPATH synthesis per instruction, then the
    IFT stage for every candidate transponder.

    [design] is called exactly once.  The run never mutates the design it
    returns: each task works on its own {!Designs.Meta.copy}, and every
    stage that extends the netlist with monitors takes a copy of that.

    [config] (default {!Mc.Checker.default_config}) configures the IFT
    stage's checkers, [synth_config] (default [config]) the µPATH
    synthesis stage's.

    [stimulus] drives each stage's simulation pre-pass.  The synthesis
    stage pins the IUV slot and applies it to its own design copy; each
    IFT query also rotates the transmitter candidates through its
    transmitter slot, and {!Flow.analyze} applies it to its own copy once
    instrumented.

    [exclude_sources] skips the listed decision-source PLs during the IFT
    stage — a cost-control knob, not a semantic one.

    [jobs] fans the instructions out across that many domains (one design
    copy and its checkers per instruction) on a pool created for the run.
    Every task's checker seed is derived deterministically from
    [(config.seed, task index)], so the report is bit-identical for every
    [jobs] value, including 1.

    [cache] attaches a persistent verdict store shared by every
    per-instruction synthesis and IFT stage.  Each task works against its
    own staged view (no lock contention inside worker domains); the stages
    are merged into the root store in task order at the join.  A fully-warm
    run replays every verdict — witnesses included — from the store and
    produces a bit-identical report (same {!report_digest}) to the cold run
    that filled it.

    [prune] (default [`On]) is the {!Mupath.Prune.mode} of all four static
    pre-passes: µFSM reachability and its known-bits refinement in
    {!Mupath.Synth.run}, the taint cone and its known-bits refinement in
    {!Flow.analyze}.  [`Audit] re-checks every statically-dead cover after
    the main stream and fails on a [Reachable] verdict; {!report_digest}
    is bit-identical across modes whenever the abstractions are sound.
    Every tagged decision is also asserted to lie inside
    {!static_leakage_grid}.  [precise] (default [true]) selects the IFT
    cell-rule precision, is threaded identically into the instrumentation
    and the static pre-pass, and namespaces the verdict cache when
    imprecise. *)

val equal_report : report -> report -> bool
(** Semantic equality — every synthesized fact (µPATH sets, decisions,
    tagged flows, signatures, property/outcome counts), ignoring
    wall-clock fields.  Reports produced with different [jobs] values must
    compare equal. *)

val report_digest : report -> string
(** Hex digest over the semantic facts of a report — µPATH sets, decisions,
    tagged flows, signatures — excluding wall-clock, cache hit/miss, and
    property/outcome counters.  [equal_report a b] implies
    [report_digest a = report_digest b]; a warm-cache run digests
    identically to the cold run that filled its store, and the digest is
    bit-identical across prune modes (whose stage counters differ). *)

val all_signatures : report -> Types.signature list
val all_transmitter_opcodes : report -> Isa.opcode list
val pp_report : Format.formatter -> report -> unit
