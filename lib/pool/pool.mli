(** Fixed-size domain work pool (OCaml 5 [Domain]/[Mutex]/[Condition]).

    The model-checking workloads RTL2MµPATH and SynthLC generate are
    embarrassingly parallel at two granularities — one task per instruction
    under verification ({!Synthlc.Engine.run}) and one checker shard per
    cover batch ({!Mupath.Synth.run}).  Each entry point creates a pool of
    its own for the run.  Guarantees:

    - {b order preservation}: {!map} and friends return results in input
      order, independent of completion order;
    - {b exception transparency}: if tasks raise, the exception of the
      lowest-index failing task is re-raised (with its backtrace) at the
      join point, so [jobs > 1] surfaces the same error a sequential run
      would;
    - {b nested-submission safety}: calling {!map} from inside a pool task
      runs the inner map inline in the calling domain — no deadlock on a
      fixed-size pool;
    - {b deterministic seeding}: {!derive_seed} gives every task a seed
      that is a pure function of [(base, index)], so parallel runs are
      bit-identical to sequential ones and to each other regardless of
      [jobs].

    The joining caller participates in draining the queue, so a pool of
    [jobs = n] keeps [n] domains busy (n-1 workers + the caller). *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs = 1] spawns
    none and makes every submission run inline).  Default: {!default_jobs}.
    Raises [Invalid_argument] if [jobs < 1]. *)

val default_jobs : unit -> int
(** [SYNTHLC_JOBS] if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val derive_seed : base:int -> index:int -> int
(** A well-mixed non-negative seed that is a pure function of
    [(base, index)] — give task [i] the seed [derive_seed ~base ~index:i]
    and its RNG stream is independent of scheduling. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], input-order-preserving. *)

val mapi : t -> f:(int -> 'a -> 'b) -> 'a list -> 'b list

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** [map] in parallel, then fold the results {e in input order} — the
    reduction is deterministic even for non-commutative [reduce]. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Run a heterogeneous batch of thunks; results in input order. *)

val shutdown : t -> unit
(** Join the worker domains.  Subsequent submissions raise
    [Invalid_argument].  Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] creates a pool, applies [f], and shuts the pool
    down even if [f] raises. *)
