(** How instructions enter a design: the one fetch protocol.

    A design with a program input exposes fetch slots, inputs read at the
    fetch PC: [if_instr_in0]/[if_instr_in1] on the CVA6-lite cores,
    [if_instr_in] on Ibex-lite and the fuzz pipelines.  Each cycle a
    stimulus reads [fetch_pc] with {!Sim.eval_cone}, which evaluates only
    that signal's combinational cone, and pokes slot [k] with the
    instruction at PC [fetch_pc + k]; the caller's full evaluation brings
    every other node up to date.  {!Sim.run} is the loop for a fixed
    {!program}; the model checker's pre-pass and µPATH synthesis's presim
    drive the constrained-random {!core} and {!ibex} programs, which respect
    the IUV constraint (§V-A): the slot whose PC equals the IUV's carries
    the IUV's encoding.

    The cache DUV takes requests instead ({!cache}). *)

val fetch_slots : Hdl.Netlist.t -> string list
(** The names of a design's fetch slots in slot order: both
    [if_instr_in0] and [if_instr_in1], else [if_instr_in], when the
    netlist also has a [fetch_pc]; [[]] for a design without a program
    input. *)

type t = Sim.t -> int -> unit
(** A stimulus, called with the cycle number once per cycle before the
    caller evaluates the netlist. *)

val program : Meta.t -> Isa.t list -> t
(** A fixed program: slot [k] gets the instruction at PC [fetch_pc + k], or
    a NOP past the program's end. *)

val core :
  ?pins:(int * Isa.t) list -> ?rotate:(int * Isa.t list) list -> Meta.t -> t
(** The constrained-random program for the CVA6-lite cores: [pins] pins PC
    slots to instructions, every other slot draws a random instruction that
    it keeps across refetches within an episode (a run from cycle 0).  Slots
    listed in [rotate] are re-pinned each episode to a fresh draw from the
    given candidates — SynthLC uses this to place random transmitters at the
    transmitter PC slot (§V-C1).  PCs past [fetch_pc] wrap at
    [2^Isa.pc_bits], as the fetch PC does. *)

val ibex :
  ?pins:(int * Isa.t) list -> ?rotate:(int * Isa.t list) list -> Meta.t -> t
(** The same program family for Ibex-lite and the fuzz pipelines, from its
    own random stream. *)

val cache : ?pins:(int * Isa.t) list -> Meta.t -> t
(** Stimulus for the cache DUV: drives the request word (LW/SW only, per
    the DUV's environment assumption), address/data operands, and AXI read
    data.  [pins] pin request slots (by request PC, the [rq_ctr] counter
    read through its cone) to a given LW/SW. *)

type kind = None | Core | Ibex | Cache
(** Which constrained-random family drives a design: an imported design's
    sidecar names it in its ["stimulus"] field.  [None] means no program
    input; unpoked inputs are then randomized by the caller. *)

val kind_name : kind -> string
(** ["none"], ["core"], ["ibex"] or ["cache"]. *)

val kind_of_string : string -> kind option

type factory =
  pins:(int * Isa.t) list -> rotate:(int * Isa.t list) list -> Meta.t -> t
(** A stimulus family as a factory: the caller binds it to a design
    instance, its pinned IUV slot and any rotated transmitter slot
    ([rotate] is ignored by {!cache}). *)

val of_kind : kind -> factory option
(** [None] for {!None}. *)
