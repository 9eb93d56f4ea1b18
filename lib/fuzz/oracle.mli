(** Differential oracle battery for generated designs (DESIGN.md §16).

    Every invariant the repo's PRs shipped becomes one machine-checkable
    oracle, run against each generated design:

    - [O_validate]: the netlist passes {!Hdl.Netlist.validate};
    - [O_absint]: known-bits containment — every concrete state of a
      24-cycle randomized simulation lies inside the {!Hdl.Absint}
      abstraction (the soundness invariant behind the prune, lint, and
      SAT-substitution clients);
    - [O_lint]: µLint admission — no Error-severity diagnostics
      (exit ≤ 1 under the lint CLI contract);
    - [O_determinism]: re-elaborating the config reproduces the same
      {!Hdl.Netlist.digest};
    - [O_roundtrip]: exporting the design as Yosys JSON
      ({!Frontend.Yosys.export_string}) and importing it back reproduces
      the original netlist digest with no warnings, and the metadata
      sidecar survives its own write/read cycle;
    - [O_jobs]: [-j 2] reproduces the [-j 1] report digest bit-for-bit;
    - [O_cache_warm]: a warm verdict-cache run is all-hits/no-misses and
      digests identically to the cold run that filled the store;
    - [O_prune_audit]: auditing all four static pre-passes ({!Mupath.Prune}
      [`Audit]: FSM reachability, taint cone, and the known-bits refinement
      of each, every pruned cover re-checked with its tripwire armed)
      reproduces the pruned run's digest;
    - [O_sweep]: equivalence-swept runs ([config.sweep] on, then audit —
      the audit re-running every SAT-resolved cover unswept with its
      divergence tripwire armed) reproduce the unswept digest;
    - [O_grid]: every dynamically tagged decision destination lies inside
      the static leakage grid of its operand (taint-grid vs dynamic IFT
      containment).

    The battery stops at the first failing oracle (later ones report
    [Skipped]); exceptions escaping the battery itself — as opposed to a
    divergence detected by it — are harness errors and propagate to the
    caller. *)

type oracle =
  | O_validate
  | O_absint
  | O_lint
  | O_determinism
  | O_roundtrip
  | O_jobs
  | O_cache_warm
  | O_prune_audit
  | O_sweep
  | O_grid

type verdict = Pass | Fail of string | Skipped

type outcome = {
  config : Gen.config;
  netlist_digest : string;
  report_digest : string option;  (** Baseline run digest, once reached. *)
  verdicts : (oracle * verdict) list;  (** In battery order. *)
  mupath_props : int;
  flow_props : int;
  pruned_static : int;  (** µPATH covers discharged by the FSM prune. *)
  flow_pruned_static : int;  (** IFT covers discharged by the taint prune. *)
  checker_props : int;
  time_s : float;
}

val all_oracles : oracle list
val oracle_name : oracle -> string

val failure : outcome -> (oracle * string) option
(** First failing oracle, if any. *)

val run :
  ?depth:int -> ?episodes:int -> ?workdir:string -> Gen.config -> outcome
(** Run the full battery.  [depth]/[episodes] size the checker (defaults
    6/3, the quick profile); [workdir] hosts the per-design verdict-cache
    directory (default: the system temp dir).  The cache directory is
    deleted afterwards. *)

val fails_like :
  ?depth:int -> ?episodes:int -> ?workdir:string -> oracle -> Gen.config -> bool
(** [fails_like o c]: does [c]'s battery fail on exactly oracle class [o]?
    The shrink predicate — a shrunk config must reproduce the original
    failure class, not just any failure. *)
