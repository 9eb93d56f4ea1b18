(** RTL2MµPATH synthesis (§V-B): uncover a complete set of formally
    verified µPATHs for one instruction under verification.

    The pipeline mirrors the paper's stages:
    + {b PL reachability for the DUV} — prune state valuations no
      instruction can occupy (§V-B1);
    + {b PL reachability for the IUV} (§V-B2);
    + {b fine-grained pruning} — dominates / exclusive relations between
      IUV PLs (§V-B3);
    + {b PL-set reachability} for each surviving candidate set (§V-B4),
      plus consecutive / non-consecutive revisit classification;
    + {b happens-before edges} from static combinational connectivity,
      confirmed per reachable set (§V-B5);
    + {b revisit cycle counts} for selected PLs (§V-B6 mode (i)).

    A constrained-random simulation pre-pass discharges most reachable
    facts cheaply (witnessed executions also seed the decision extraction
    of §IV-B); unreachability verdicts always come from the model checker.
    Per-stage property counts and outcome statistics are recorded — they
    regenerate the paper's §VII-B3 numbers. *)

type path = {
  pl_set : (string * Uhb.Revisit.t) list;
      (** The reachable PL set with aggregated revisit classification. *)
  hb_edges : (string * string) list;
      (** Confirmed one-cycle happens-before edges between first visits. *)
}

type stage_stats = {
  mutable props : int;  (** Model-checker properties evaluated. *)
  mutable presim_hits : int;  (** Facts discharged by the simulation pre-pass. *)
  mutable undetermined : int;
  mutable pruned_static : int;
      (** Covers discharged by the static FSM-abstraction reachability
          pre-pass — never dispatched to simulation or the model checker.
          Zero when [static_prune] is off (the audit re-checks count as
          [props] instead). *)
  mutable pruned_absint : int;
      (** Covers discharged by the known-bits pre-pass {e beyond} the FSM
          abstraction: dead under {!Hdl.Analysis.fsm_reachable} refined
          with {!Hdl.Absint.known_bits}, or with an occupancy monitor bit
          proven stuck at 0.  Zero unless [absint] is [`On]. *)
}

type result = {
  instr : Isa.t;
  duv_pls : string list;
  pruned_duv_states : string list;
      (** Unlabeled state valuations proven unreachable. *)
  iuv_pls : string list;
  implications : (string * string) list;
      (** [(a, b)]: every completed execution visiting [a] also visits [b]. *)
  exclusives : (string * string) list;
  naive_sets : int;  (** |power set of IUV PLs| before pruning. *)
  candidate_sets : int;  (** Sets surviving dominates/exclusive pruning. *)
  paths : path list;
  decisions : (string * string list list) list;
      (** Per decision source: the observed destination PL sets (§IV-B). *)
  revisit_counts : (string * int list) list;
      (** Possible consecutive-run lengths for tracked PLs (§V-B6). *)
  stage_stats : (string * stage_stats) list;
  checker_stats : Mc.Checker.Stats.t;
}

val run :
  ?cache:Vcache.t ->
  ?config:Mc.Checker.config ->
  ?stimulus:(Sim.t -> int -> unit) ->
  ?revisit_count_labels:string list ->
  ?presim_episodes:int ->
  ?static_prune:bool ->
  ?absint:Prune.mode ->
  ?shards:int ->
  meta:Designs.Meta.t ->
  iuv:Isa.t ->
  iuv_pc:int ->
  unit ->
  result
(** Note: [meta] is consumed — the harness extends its netlist with monitor
    state, so pass a {!Designs.Meta.copy} per call.

    [static_prune] (default [true]) and [absint] (default [`On]) set the
    {!Prune.mode} of the two static reachability pre-passes.  The first
    over-approximates each µFSM's reachable states
    ({!Hdl.Analysis.fsm_reachable}); a cover over a state outside that set
    is unreachable.  The second, known bits, re-runs the analysis with the
    invariants of {!Hdl.Absint.known_bits} over the monitored netlist and
    also kills covers whose occupancy monitor bit is proven stuck at 0; it
    counts only covers the first left alive.  [static_prune = false] means
    [`Audit] for the first pre-pass.  Dead covers never enter the main
    property stream, so the result digest is the same in every mode; when
    auditing, they are re-checked after it (FSM abstraction first), and a
    [Reachable] verdict raises [Failure].

    [cache] attaches a persistent verdict store (see {!Mc.Checker.create}):
    every checker property — including each shard's — is looked up before
    any engine runs, and a run whose properties all hit is bit-identical to
    the run that filled the store, because cached witness traces replay
    through the same harvesting code paths.
    [config.sweep] selects the checker's equivalence-sweep mode; the
    design's {!Designs.Meta.signals} are always passed as merge barriers.  With [shards > 1], each
    non-zero shard stages its writes and the joins merge them in shard
    order.

    [presim_episodes] (default 64) is the number of random simulation
    episodes the pre-pass harvests; [revisit_count_labels] names the PLs
    whose consecutive-run lengths are derived (§V-B6).

    [shards] (default 1) turns on property sharding: K checker instances
    over the same monitored netlist, with the independent PL / PL-set cover
    batches of a stage split round-robin across them and evaluated in
    parallel on a pool of K domains created for the run.  Sharding trades
    the learned-clause sharing of one incremental solver for cores, so
    per-property engine verdicts (e.g. sim-discharged vs BMC) can differ
    from the unsharded run — the µPATH set itself is engine-independent.
    For a fixed [shards] value results are deterministic. *)

val to_uhb_paths : result -> Uhb.Path.t list
val to_uhb_decisions : result -> Uhb.Decision.t list
val pp_result : Format.formatter -> result -> unit

val result_digest : result -> string
(** Hex digest of the semantic result fields (µPATH set, implications,
    decisions, revisit counts) — excludes stage/checker statistics, so it
    is stable across job counts, cache warmth, and prune modes. *)
