(** A CDCL SAT solver.

    Implements conflict-driven clause learning with two-watched literals,
    first-UIP learning, VSIDS-style activity ordering, Luby restarts, and
    phase saving.  Supports incremental solving under assumptions and a
    conflict budget that yields {!Unknown} when exhausted — the mechanism
    the model checker uses to produce the paper's [undetermined] outcomes.

    Learnt clauses carry an LBD ("glue") score and the database is
    periodically halved by {!reduce_db} once it outgrows a geometrically
    growing limit, keeping binary, glue and locked clauses. *)

type t

type lit = int
(** A literal: variable [v] (0-based) appears positively as [2*v] and
    negatively as [2*v+1]. *)

val pos : int -> lit
(** [pos v] is the positive literal of variable [v]. *)

val neg_of_var : int -> lit
(** [neg_of_var v] is the negative literal of variable [v]. *)

val negate : lit -> lit
val var_of : lit -> int
val is_pos : lit -> bool

type result =
  | Sat
  | Unsat
  | Unknown (** Conflict budget exhausted. *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val nvars : t -> int

val add_clause : t -> lit list -> unit
(** Add a clause.  Adding the empty clause (or a clause that simplifies to
    it) makes the instance permanently unsatisfiable.  Clauses added after a
    [Sat] result do not invalidate the stored model ({!value} still reads
    the model of the last [solve]); they take effect at the next [solve]. *)

val solve : ?assumptions:lit list -> ?max_conflicts:int -> t -> result
(** Solve under the given assumptions.  [max_conflicts] bounds the search;
    when exceeded the result is [Unknown].  The solver can be reused after
    any outcome; learned clauses persist (subject to {!reduce_db}). *)

val value : t -> int -> bool
(** [value s v] is the value of variable [v] in the most recent [Sat] model.
    Variables never touched by the search default to [false].

    @raise Invalid_argument if the last [solve] did not return [Sat] (there
    is no model to read — previously this silently returned stale phase). *)

val lit_value : t -> lit -> bool
(** Literal counterpart of {!value}; same precondition. *)

val has_model : t -> bool
(** [true] iff the last [solve] returned [Sat], i.e. {!value}/{!lit_value}
    may be read. *)

(** {2 Learnt-clause database management} *)

val reduce_db : t -> unit
(** Halve the learnt-clause database: binary clauses, glue clauses
    (LBD <= 2) and locked clauses (currently acting as a propagation
    reason) are kept unconditionally; the rest are ranked by activity then
    LBD and the worse half deleted.  Runs automatically during [solve]
    whenever the learnt count reaches the (geometrically growing) limit;
    callable manually between solves. *)

val learnt_limit : t -> int
(** Current reduce trigger: when the learnt count reaches this, [solve]
    calls {!reduce_db} and grows the limit by 3/2. *)

val set_learnt_limit : t -> int -> unit
(** Override the reduce trigger (clamped to >= 1).  Mainly for tests. *)

val num_learnts : t -> int
(** Learnt clauses currently in the database. *)

val num_reduces : t -> int
(** Number of {!reduce_db} events that actually deleted clauses. *)

val learnt_peak : t -> int
(** High-water mark of {!num_learnts}. *)

(** {2 Statistics} *)

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls — used for benchmarking. *)

val num_decisions : t -> int
val num_propagations : t -> int
