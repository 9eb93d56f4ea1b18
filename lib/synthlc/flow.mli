(** Symbolic information-flow queries (§V-C1).

    For one transponder and one (transmitter-kind, operand) pair, {!analyze}
    takes its own copy of the design, instruments it with CellIFT-style
    taint logic whose single source is the chosen operand register while the
    transmitter's PC occupies the operand-read stage (Fig. 7), adds the
    transmitter-typing monitors implementing Assumptions 1/2a/2b/3, and
    evaluates one cover property per (transmitter, decision): is there a
    trace where the transponder exhibits decision (src, dst) one cycle after
    visiting src with the destination µFSMs tainted?  Reachable ⇒ the
    decision is tagged operand-dependent on that typed transmitter. *)

type query_stats = {
  q_props : int;
      (** Covers considered, including statically-discharged ones — identical
          across prune modes and part of the report digest. *)
  q_undetermined : int;
  q_pruned_static : int;
      (** Covers discharged by the static taint pre-pass without a checker
          call.  Zero under [`Audit]; excluded from the report digest. *)
  q_pruned_absint : int;
      (** Covers discharged {e only} by the known-bits-refined pre-pass
          (dead refined, live under the base pre-pass).  Zero under
          [`Audit]; excluded from the report digest. *)
}

type analysis = { tagged : Types.tagged_decision list; stats : query_stats }

val transmitter_pc : iuv_pc:int -> Types.transmitter_kind -> int
(** PC slot the transmitter instance occupies relative to the IUV:
    intrinsic shares the IUV's slot, dynamic-older/-younger sit one slot
    before/after, static sits two slots before (so it can complete first). *)

val analyze :
  ?cache:Vcache.t ->
  ?config:Mc.Checker.config ->
  ?stimulus:(Designs.Meta.t -> Sim.t -> int -> unit) ->
  ?precise:bool ->
  ?prune:Mupath.Prune.mode ->
  meta:Designs.Meta.t ->
  transponder:Isa.t ->
  decisions:(string * string list list) list ->
  transmitters:Isa.opcode list ->
  kind:Types.transmitter_kind ->
  operand:Types.operand ->
  iuv_pc:int ->
  unit ->
  analysis
(** [decisions] come from {!Mupath.Synth.run} (sources with their observed
    destination sets); [transmitters] are the candidate opcodes considered
    at the transmitter slot (intrinsic analyses only query the transponder
    itself); [precise] selects the IFT cell-rule precision (§VII-B1
    ablation) — it is threaded identically into the static taint pre-pass
    and folded into the verdict-cache namespace when imprecise.
    [prune] (default [`On]) is the {!Mupath.Prune.mode} of two pre-passes
    over the IFT covers: the operand's static taint cone
    ({!Hdl.Analysis.taint_reach}) and its known-bits refinement
    ({!Hdl.Absint}), which counts only covers the plain cone left alive.
    Their dead covers never enter the main checker stream; under [`Audit]
    they are re-checked after it (taint cone first) and a [Reachable]
    verdict raises [Failure].  [meta] is consumed: the analysis extends its
    netlist with monitors and taint logic, so pass a {!Designs.Meta.copy}
    per call, as {!Engine.run} does.  [stimulus] is applied to that
    instance once it is instrumented, so it may look its signals up by
    name.  Imprecise runs pass the salt ["|ift:imprecise"] to
    {!Mupath.Harness.create}, so the two precisions never share cached
    verdicts. *)
