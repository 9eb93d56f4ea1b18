(** Structured tracing and metrics for the checker/synthesis stack.

    The paper's evaluation (§VIII, Table VII) is about {e where time goes} —
    property counts, checker runtimes, undetermined rates per instruction —
    so every layer of the reproduction (checker, verdict cache, synthesis
    stages, engine tasks, work pool) reports into this one registry:

    - {b spans}: nested timed regions on a monotonic clock, attributed to
      the recording domain and to ambient context (e.g. the per-task seed),
      kept in a fixed-capacity ring buffer and exportable as Chrome
      trace-event JSON ([chrome://tracing] / [ui.perfetto.dev]);
    - {b metrics}: named counters, gauges, and histograms with optional
      label sets, exportable as a flat JSON object ([--metrics FILE]) and
      merged into the engine report.

    The whole layer is {b off by default}.  Disabled, every entry point
    reduces to one atomic flag read and allocates nothing, so instrumented
    hot paths cost nothing measurable.  Nothing here feeds back into
    verdicts, RNG streams, or report digests: a run traces identically to
    an untraced one, bit for bit ({e the digest-exclusion rule} —
    observability fields never enter {!Synthlc.Engine.report_digest}). *)

val now_ns : unit -> int
(** Monotonic time in nanoseconds (arbitrary epoch).  Always live, even
    when the layer is disabled. *)

val seconds_since : int -> float
(** [seconds_since t0] is the time elapsed since the {!now_ns} reading
    [t0], in seconds. *)

val enabled : unit -> bool
(** One atomic read — the guard instrumented call sites branch on. *)

val enable : ?capacity:int -> unit -> unit
(** Turn the layer on.  [capacity] bounds the event ring buffer (default
    65536 events); when it overflows, the oldest events are dropped and
    {!dropped_events} counts them.  Idempotent; re-enabling with a new
    [capacity] resizes an empty buffer only. *)

val disable : unit -> unit
(** Turn the layer off.  Recorded events and metrics are retained until
    {!reset}. *)

val reset : unit -> unit
(** Drop all recorded events and metric series (enabled state is kept). *)

(** {1 Spans and events} *)

type event = {
  ev_name : string;
  ev_ts_ns : int;  (** Start, {!now_ns} clock. *)
  ev_dur_ns : int;  (** Duration; [0] for instant events. *)
  ev_tid : int;  (** Recording domain's id. *)
  ev_args : (string * string) list;
}

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records one event (on completion,
    even if [f] raises).  Nesting is by timestamps within a domain, the
    Chrome trace-event convention.  Ambient {!with_ctx} pairs are appended
    to [args].  Disabled: exactly [f ()]. *)

val instant : ?args:(string * string) list -> string -> unit
(** Record a zero-duration event (e.g. a cache-corruption sighting). *)

val with_ctx : (string * string) list -> (unit -> 'a) -> 'a
(** Push ambient key/value pairs for the dynamic extent of the callback in
    {e this domain} — every span recorded inside carries them.  Used for
    task-seed and instruction attribution across layers that do not know
    about each other. *)

val events : unit -> event list
(** Buffered events, oldest first. *)

val dropped_events : unit -> int
(** Events evicted from the ring since the last {!reset}. *)

(** {1 Metrics} *)

module Metrics : sig
  (** A registry of named series.  A series is [(name, labels)]; labels
      render into the exported name as [name{k=v,...}] (sorted by key).
      All updates are cheap and domain-safe (one mutex).  Every update is
      a no-op while the layer is disabled. *)

  val incr : ?labels:(string * string) list -> ?by:int -> string -> unit
  (** Counter increment (default [by:1]). *)

  val gauge : ?labels:(string * string) list -> string -> float -> unit
  (** Set a gauge to its latest value. *)

  val observe : ?labels:(string * string) list -> string -> float -> unit
  (** Histogram observation; the series exports [.count], [.sum],
      [.mean], [.min], and [.max] components. *)

  val get : string -> float option
  (** Look one exported series component up by its rendered name. *)

  val snapshot : unit -> (string * float) list
  (** Every exported series component, sorted by name.  Counters and
      gauges export one component under their rendered name; histograms
      export five (see {!observe}). *)
end

(** {1 Export} *)

val chrome_trace : unit -> string
(** The buffered events as Chrome trace-event JSON: an object with a
    [traceEvents] array of ["ph": "X"] (complete) events — [ts]/[dur] in
    microseconds, [tid] the recording domain — plus process metadata.
    Loadable by [chrome://tracing] and Perfetto. *)

val write_chrome_trace : string -> unit
(** {!chrome_trace} to a file. *)

val metrics_json : unit -> string
(** {!Metrics.snapshot} as one flat JSON object, keys sorted. *)

val write_metrics_json : string -> unit
(** {!metrics_json} to a file. *)
