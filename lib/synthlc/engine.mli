(** SynthLC top level (§V): RTL2MµPATH per instruction, candidate-transponder
    detection, symbolic-IFT attribution of decisions to typed transmitters,
    and leakage-signature assembly. *)

type stimulus_builder =
  pins:(int * Isa.t) list ->
  rotate:(int * Isa.t list) list ->
  Designs.Meta.t ->
  Sim.t ->
  int ->
  unit
(** Stimulus factory: the engine pins the IUV slot and rotates random
    transmitter candidates through the transmitter slot (§V-C1). *)

type transponder_report = {
  instr : Isa.t;
  synth : Mupath.Synth.result;  (** The µPATH synthesis result. *)
  tagged : Types.tagged_decision list;
  signatures : Types.signature list;
  flow_props : int;
  flow_undetermined : int;
  flow_pruned_static : int;
      (** IFT covers discharged by the static taint pre-pass without checker
          calls.  Differs across {!Types.prune_mode}s (0 in off/audit), so
          excluded from {!report_digest}. *)
  flow_pruned_absint : int;
      (** IFT covers discharged {e only} by the known-bits-refined pre-pass
          ({!Hdl.Absint}) — dead refined, live under the base pre-pass.
          Same digest-exclusion rule as [flow_pruned_static]. *)
  static_flow_live : (Types.operand * string list) list;
      (** The static leakage grid: per operand register, the PL labels whose
          µFSMs the operand's taint may reach.  Recomputed independently of
          the Flow pre-pass; every tagged decision is asserted to lie inside
          it (except in {!Types.Prune_off}).  Excluded from the digest. *)
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
  precise:bool ->
  (unit -> Designs.Meta.t) ->
  (Types.operand * string list) list
(** The static leakage-grid over-approximation for a design: per operand
    register, the PL labels whose member µFSM state (PCR or vars) the
    operand's taint may reach under {!Hdl.Analysis.taint_reach} with the
    ARF/AMEM blocked.  Any decision destination outside the grid can never
    be tagged by a sound flow analysis. *)

val synth_absint_mode : Types.prune_mode -> [ `On | `Audit ]
(** The {!Mupath.Synth.run} [absint] mode for a prune mode:
    {!Types.Prune_on} prunes, {!Types.Prune_off} and {!Types.Prune_audit}
    both re-check the pruned covers and fail on a [Reachable] verdict —
    synthesis cannot re-admit a cover after its main stream has run. *)

val analyze_transponder :
  ?cache:Vcache.t ->
  ?config:Mc.Checker.config ->
  ?synth_config:Mc.Checker.config ->
  ?semantic_cache:bool ->
  ?static_prune:bool ->
  ?dump_cnf:string ->
  ?precise:bool ->
  ?static_flow_prune:Types.prune_mode ->
  ?absint:Types.prune_mode ->
  ?stimulus:stimulus_builder ->
  ?exclude_sources:string list ->
  design:(unit -> Designs.Meta.t) ->
  instr:Isa.t ->
  transmitters:Isa.opcode list ->
  kinds:Types.transmitter_kind list ->
  revisit_count_labels:string list ->
  iuv_pc:int ->
  unit ->
  transponder_report

(** [run]'s [exclude_sources] skips the listed decision-source PLs during
    the IFT stage — a cost-control knob, not a semantic one.

    [dump_cnf] writes the synthesis checker's BMC unrolling to the given
    path as DIMACS CNF at the end of each task (per-instruction runs
    suffix the path with the task index) — offline debugging only, no
    semantic effect.

    [jobs] fans {!analyze_transponder} out across that many domains (one
    fresh design + checker per instruction); [pool] reuses an existing
    {!Pool.t} instead (taking its job count).  Every task's checker seed is
    derived deterministically from [(config.seed, task index)], so the
    report is bit-identical for every [jobs] value, including 1.

    [cache] attaches a persistent verdict store shared by every
    per-instruction synthesis and IFT stage.  Each task works against its
    own staged view (no lock contention inside worker domains); the stages
    are merged into the root store in task order at the join.  A fully-warm
    run replays every verdict — witnesses included — from the store and
    produces a bit-identical report (same {!report_digest}) to the cold run
    that filled it.

    [static_prune] is forwarded to {!Mupath.Synth.run} (default [true]):
    covers over statically-unreachable µFSM states are discharged by the
    FSM-abstraction reachability pre-pass without dispatching properties.
    {!report_digest} is bit-identical across [static_prune] modes.

    [static_flow_prune] (default {!Types.Prune_on}) is forwarded to
    {!Flow.analyze}: IFT covers whose destinations lie outside the operand's
    static taint cone are discharged without checker calls (on), dispatched
    as a trailing trusted batch (off), or dispatched with a [failwith]
    tripwire on any reachable verdict (audit).  All modes issue the same
    mid-stream checker sequence, so {!report_digest} is bit-identical across
    them whenever the abstraction is sound.

    [absint] (default {!Types.Prune_on}) governs the known-bits refinement
    ({!Hdl.Absint}) independently: it is forwarded to {!Mupath.Synth.run}
    (extra statically-dead µFSM states and known-zero occupancy monitors)
    and to {!Flow.analyze} (covers dead only under the known-bits-refined
    taint pre-pass), with the same digest-invariance guarantee.  Flow
    honours all three modes; synthesis maps off to audit (see
    {!synth_absint_mode}).  [precise] (default [true])
    selects the IFT cell-rule precision, is threaded identically into the
    instrumentation and the static pre-pass, and namespaces the verdict
    cache when imprecise. *)
val run :
  ?cache:Vcache.t ->
  ?config:Mc.Checker.config ->
  ?synth_config:Mc.Checker.config ->
  ?semantic_cache:bool ->
  ?static_prune:bool ->
  ?dump_cnf:string ->
  ?precise:bool ->
  ?static_flow_prune:Types.prune_mode ->
  ?absint:Types.prune_mode ->
  ?stimulus:stimulus_builder ->
  ?exclude_sources:string list ->
  ?jobs:int ->
  ?pool:Pool.t ->
  design:(unit -> Designs.Meta.t) ->
  instructions:Isa.t list ->
  transmitters:Isa.opcode list ->
  kinds:Types.transmitter_kind list ->
  revisit_count_labels:string list ->
  iuv_pc:int ->
  unit ->
  report

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
    bit-identical across [static_prune] modes (whose stage counters
    differ). *)

val all_signatures : report -> Types.signature list
val all_transmitter_opcodes : report -> Isa.opcode list
val pp_report : Format.formatter -> report -> unit
