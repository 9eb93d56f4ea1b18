(** Fuzz campaign driver: sampling loop, budget, shrinking, corpus JSON.

    A campaign runs designs [0 .. count-1] of a seed (or a single [only]
    index) through {!Oracle.run}, stops early when the wall-clock budget
    is exhausted, minimizes every failing config along the parameter
    lattice ({!Gen.shrink_steps}, re-checked with {!Oracle.fails_like} so
    the shrunk config still reproduces the original failure class), and
    renders a JSON corpus summary for CI artifact upload.

    Exit-code contract (shared with the [synthlc fuzz] CLI and mirrored
    on [synthlc lint]): 0 = all oracles green, 1 = at least one oracle
    divergence, 2 = harness error (bad usage or an unexpected exception
    outside the oracle battery). *)

type failure_row = {
  fr_index : int;
  fr_oracle : Oracle.oracle;
  fr_message : string;
  fr_config : Gen.config;  (** As sampled. *)
  fr_shrunk : Gen.config;  (** Lattice-minimal, same failure class. *)
  fr_shrink_steps : int;  (** Lattice steps accepted by the minimizer. *)
  fr_reproducer : string;  (** One-line [synthlc fuzz] invocation. *)
}

type summary = {
  seed : int;
  count : int;
  budget_s : float;  (** 0 = unbounded. *)
  depth : int;
  episodes : int;
  designs : (int * Oracle.outcome) list;  (** (index, outcome), run order. *)
  failures : failure_row list;
  skipped : int;  (** Designs not run because the budget ran out. *)
  total_time_s : float;
}

val default_depth : int
val default_episodes : int

val reproducer :
  seed:int -> depth:int -> episodes:int -> defect:Gen.defect option -> int -> string
(** The one-line reproducer for design [index] of a campaign. *)

val shrink :
  ?depth:int ->
  ?episodes:int ->
  ?workdir:string ->
  Oracle.oracle ->
  Gen.config ->
  Gen.config * int
(** Greedy lattice descent: repeatedly take the first single-parameter
    reduction that still fails on the given oracle class.  Returns the
    fixpoint and the number of accepted steps (re-runs are capped, so
    shrinking always terminates quickly). *)

val campaign :
  ?depth:int ->
  ?episodes:int ->
  ?workdir:string ->
  ?defect:Gen.defect option ->
  ?only:int ->
  ?budget_s:float ->
  ?log:(string -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  summary
(** Run a campaign.  [defect] (default [None]) overrides every sampled
    config's defect field — the seeded-defect acceptance path.  [log]
    receives one progress line per design (default: drop).  Raises
    [Invalid_argument] before any design runs on a negative [depth] or
    [episodes], a [count] below 1 or a negative [only]. *)

val summary_to_json : summary -> string
val exit_code : summary -> int
(** 0 when every oracle passed, 1 otherwise (harness errors raise). *)
