(** Constrained-random stimulus generators for the shipped DUVs.

    The model checker's simulation pre-pass needs input streams that respect
    the IUV constraint (§V-A): the fetch slot whose PC equals the IUV's PC
    must carry the IUV's encoding.  These generators poke the design's fetch
    inputs accordingly, optionally pinning further PC slots to specific
    instructions (used by SynthLC to place transmitters), and randomize
    everything else.

    A generator is called once per cycle, before the caller evaluates the
    whole netlist.  It reads the current PC (or request counter) with
    {!Sim.eval_cone}, which evaluates only that signal's combinational
    cone, then pokes the inputs; the caller's full evaluation brings every
    other node up to date. *)

val core :
  ?pins:(int * Isa.t) list ->
  ?rotate:(int * Isa.t list) list ->
  ?seed:int ->
  Meta.t ->
  Sim.t ->
  int ->
  unit
(** Stimulus for the CVA6-lite cores: drives [if_instr_in0]/[if_instr_in1]
    from the current fetch PC ([fetch_pc], read through its cone), honouring
    [pins] (PC slot → instruction).
    Slots listed in [rotate] are re-pinned each episode to a fresh draw
    from the given candidates — SynthLC uses this to place random
    transmitters at the transmitter PC slot. *)

val cache :
  ?pins:(int * Isa.t) list ->
  ?seed:int ->
  Meta.t ->
  Sim.t ->
  int ->
  unit
(** Stimulus for the cache DUV: drives the request word (LW/SW only, per
    the DUV's environment assumption), address/data operands, and AXI read
    data.  [pins] pin request slots (by request PC, the [rq_ctr] counter
    read through its cone) to a given LW/SW. *)

val ibex :
  ?pins:(int * Isa.t) list ->
  ?rotate:(int * Isa.t list) list ->
  ?seed:int ->
  Meta.t ->
  Sim.t ->
  int ->
  unit
(** Stimulus for Ibex-lite (single fetch input), same conventions as
    {!core}. *)
