(** Per-IUV verification harness.

    Given a design's metadata and an instruction under verification (IUV),
    [create] extends the netlist with the monitor state RTL2MµPATH's
    property templates need, then wraps it in a {!Mc.Checker.t}:

    - {b PL groups}: performing locations sharing a µHB row label are
      grouped (e.g. the four scoreboard entries' "scbIss" states form one
      group); occupancy signals are built per group, both for any
      instruction and for the IUV specifically (IIR = IUV's PC).
    - {b Visited flags}: sticky per-group IUV-visit flags, frozen once the
      IUV is {e gone} (committed and absent from every µFSM) — giving the
      end-of-execution evaluation point of the §V-B templates.
    - {b Revisit monitors}: consecutive-revisit and re-entry flags, plus
      maximum-consecutive-run counters for selected labels (§V-B6 mode (i)).
    - {b Edge flags}: for statically (combinationally) connected PL pairs,
      a flag recording a one-cycle first-entry happens-before observation
      (§V-B5).
    - {b IUV constraint}: an assumption pinning every IFR slot that carries
      the IUV's PC to the IUV's encoding.

    All monitors are materialized {e before} checker creation so that every
    later property is a conjunction of existing 1-bit literals.  A trace
    reader reads them (occupancies, [gone], the sticky flags, edge flags
    and {!maxrun}) off a simulator of the monitored netlist, which a
    checker witness ({!Mc.Checker.Cex}) drives as well as a stimulus. *)

type t

val pl_groups : Designs.Meta.t -> (string * (Designs.Meta.ufsm * Bitvec.t) list) list
(** The labelled PL groups of a design: non-idle µFSM states sharing a µHB
    row label, e.g. the four scoreboard entries' "scbIss" states. *)

val create :
  ?cache:Vcache.t ->
  ?cache_salt:string ->
  ?config:Mc.Checker.config ->
  ?stimulus:(Sim.t -> int -> unit) ->
  ?revisit_count_labels:string list ->
  meta:Designs.Meta.t ->
  iuv:Isa.t ->
  iuv_pc:int ->
  unit ->
  t
(** [cache]/[cache_salt] are forwarded to {!Mc.Checker.create}: the
    monitored netlist's digest (which covers the IUV pin, the PL monitors,
    and the revisit counters) keys the verdict store.  {!Designs.Meta.signals} is passed as the checker's sweep
    barriers, so an equivalence sweep ([config.sweep]) can never merge
    away an annotated signal. *)

val checker : t -> Mc.Checker.t
val meta : t -> Designs.Meta.t
val iuv : t -> Isa.t

val labels : t -> string list
(** All PL-group labels, in declaration order. *)

val occ_any : t -> string -> Hdl.Netlist.signal
(** Group occupied by some instruction this cycle. *)

val occ_iuv : t -> string -> Hdl.Netlist.signal
(** Group occupied by the IUV this cycle. *)

val prev_occ_iuv : t -> string -> Hdl.Netlist.signal
(** [occ_iuv] delayed one cycle — used to phrase [src ##1 dst] covers. *)

val visited : t -> string -> Hdl.Netlist.signal
val cons_flag : t -> string -> Hdl.Netlist.signal
(** The IUV occupied this group on two consecutive cycles at least once. *)

val reenter_flag : t -> string -> Hdl.Netlist.signal
(** The IUV re-entered this group after leaving it. *)

val gone : t -> Hdl.Netlist.signal
(** Sticky: the IUV committed and has left every µFSM. *)

val assumes : t -> Hdl.Netlist.signal list
(** Every per-cycle assumption the checker runs under (IUV encoding pin,
    PC-uniqueness, design environment constraints). *)

val edge_candidates : t -> (string * string) list
(** PL-group pairs combinationally connected in the netlist — the candidate
    happens-before edges of §V-B5. *)

val edge_flag : t -> string * string -> Hdl.Netlist.signal
(** Sticky: the IUV was in the first group one cycle before first entering
    the second. *)

val unlabeled_states : t -> (string * Hdl.Netlist.signal) list
(** Occupancy of every unlabeled non-idle µFSM state valuation — candidate
    PLs the DUV-reachability stage is expected to prune (§V-B1). *)

val unlabeled_state_info :
  t -> (string * Hdl.Netlist.signal * (Designs.Meta.ufsm * Bitvec.t)) list
(** Like {!unlabeled_states}, with the defining (µFSM, valuation) pair —
    what the static reachability pre-pass of {!Synth} keys its pruning on. *)

val maxrun : t -> string -> Hdl.Netlist.signal
(** The named 4-bit register [mon_maxrun_<label>]: the IUV's longest
    consecutive run in the group so far, frozen once the IUV is gone and
    saturating at 15 (only for labels passed in [revisit_count_labels]).
    A trace reader reads it at the trace's last cycle. *)

val maxrun_eq : t -> string -> int -> Hdl.Netlist.signal
(** 1-bit: {!maxrun} equals [n], for [1 <= n <= 15] — what a revisit-count
    cover asks for. *)
