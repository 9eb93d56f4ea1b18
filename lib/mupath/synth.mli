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
  ?cache_salt:string ->
  ?config:Mc.Checker.config ->
  ?stimulus:(Sim.t -> int -> unit) ->
  ?semantic_cache:bool ->
  ?revisit_count_labels:string list ->
  ?max_candidate_sets:int ->
  ?max_revisit_count:int ->
  ?presim_episodes:int ->
  ?presim_cycles:int ->
  ?static_prune:bool ->
  ?absint:[ `On | `Audit ] ->
  ?dump_cnf:string ->
  ?shards:int ->
  ?pool:Pool.t ->
  meta:Designs.Meta.t ->
  iuv:Isa.t ->
  iuv_pc:int ->
  unit ->
  result
(** Note: [meta] is consumed — the harness extends its netlist with monitor
    state, so build a fresh design per call.

    [static_prune] (default [true]) enables the static FSM-abstraction
    reachability pre-pass: covers over state valuations outside a µFSM's
    abstract reachable set (see {!Hdl.Analysis.fsm_reachable}) are decided
    unreachable without dispatching a property.  This is sound — the
    abstraction over-approximates, so exclusion proves unreachability.
    With [static_prune = false] those covers are instead dispatched as a
    trailing audit batch after the main property stream; a [Reachable]
    audit verdict raises [Failure].  Both modes issue the identical checker
    sequence for every semantically-live cover, so the {!Synthlc} report
    digest is bit-identical across modes.

    [absint] (default [`On]) layers the known-bits pre-pass on top: covers
    the FSM abstraction left undecided but that die under the
    known-bits-refined reachability — or whose occupancy monitor bit is
    proven stuck at 0 ({!Hdl.Absint.known_bits} over the monitored
    netlist) — are discharged without a property.  The dead/live partition
    is computed in both modes, so the mid-stream checker sequence and the
    report digest are bit-identical across [`On]/[`Audit]; with [`Audit]
    the extra dead covers are re-dispatched as a second trailing batch
    (after the [static_prune] audit batch), and a [Reachable] verdict
    raises [Failure] — synthesis has no honest path to re-admit a cover
    after the main stream has run, so there is no trust-the-checker
    mode.

    [cache] attaches a persistent verdict store (see {!Mc.Checker.create}):
    every checker property — including each shard's — is looked up before
    any engine runs, and a run whose properties all hit is bit-identical to
    the run that filled the store, because cached witness traces replay
    through the same harvesting code paths.  [semantic_cache] switches the
    store to the behavioral key namespace (see {!Mc.Checker.create}), so
    semantically equivalent netlist variants share verdicts.
    [config.sweep] selects the checker's equivalence-sweep mode; the
    design's {!Designs.Meta.signals} are always passed as merge barriers.  With [shards > 1], each
    non-zero shard stages its writes and the joins merge them in shard
    order.

    [shards] (default 1) turns on property sharding: K checker instances
    over the same monitored netlist, with the independent PL / PL-set cover
    batches of a stage split round-robin across them and evaluated in
    parallel (on [pool] if given, else a transient pool of K domains).
    Sharding trades the learned-clause sharing of one incremental solver
    for cores, so per-property engine verdicts (e.g. sim-discharged vs
    BMC) can differ from the unsharded run — the µPATH set itself is
    engine-independent.  For a fixed [shards] value results are
    deterministic regardless of the pool's job count. *)

val to_uhb_paths : result -> Uhb.Path.t list
val to_uhb_decisions : result -> Uhb.Decision.t list
val pp_result : Format.formatter -> result -> unit

val result_digest : result -> string
(** Hex digest of the semantic result fields (µPATH set, implications,
    decisions, revisit counts) — excludes stage/checker statistics, so it
    is stable across job counts, cache warmth, and prune modes. *)
