(** Design metadata — the user annotations of §V-A / Table II.

    A design-under-verification (DUV) ships with: the instruction fetch
    register (IFR) interface, the commit signal, its µFSMs (⟨PCR, state
    vars⟩ tuples with idle states and human-readable PL labels), the
    operand registers at the register-read stage (taint-introduction points
    for SynthLC), and the architectural register file / main memory
    (taint-propagation blockers). *)

type ufsm = {
  ufsm_name : string;
  pcr : Hdl.Netlist.signal;
      (** Program-counter register acting as the instruction-identifying
          register (IIR): holds the PC of the occupying instruction. *)
  vars : Hdl.Netlist.signal list;
      (** State variables; their concatenation (head = MSBs) is the µFSM
          state. *)
  idle_states : Bitvec.t list;
      (** Valuations that denote "no instruction here" — never PLs. *)
  state_labels : (Bitvec.t * string) list;
      (** Human-readable PL label per non-idle state valuation, e.g.
          [(0b01, "scbIss")].  States without a label get a hex name. *)
}

type ifr_slot = {
  ifr_valid : Hdl.Netlist.signal;
  ifr_pc : Hdl.Netlist.signal;
  ifr_word : Hdl.Netlist.signal;
}
(** One instruction-fetch-register slot: the model checker constrains the
    word held at the slot whose PC matches the instruction under
    verification (§V-A). *)

type t = {
  design_name : string;
  nl : Hdl.Netlist.t;
  ifrs : ifr_slot list;  (** Every IFR slot (dual-fetch designs have two). *)
  operand_stage_valid : Hdl.Netlist.signal;
      (** The stage owning the operand registers is occupied. *)
  operand_stage_pc : Hdl.Netlist.signal;
      (** PC of the instruction occupying the operand stage. *)
  commit : Hdl.Netlist.signal;  (** 1-bit commit pulse. *)
  commit_pc : Hdl.Netlist.signal;  (** PC of the committing instruction. *)
  flush : Hdl.Netlist.signal;  (** 1-bit squash pulse (redirect/exception). *)
  ufsms : ufsm list;
  operand_regs : (string * Hdl.Netlist.signal) list;
      (** Registers holding instruction operands at the register-read stage,
          keyed ["rs1"]/["rs2"] — SynthLC's taint-introduction points. *)
  arf : Hdl.Netlist.signal list;  (** Architectural register file. *)
  amem : Hdl.Netlist.signal list;  (** Architectural main memory. *)
  extra_assumes : Hdl.Netlist.signal list;
      (** Design-specific environment constraints that must hold on every
          model-checked cycle (e.g. well-formed request interfaces). *)
}

val ufsm_state_width : t -> ufsm -> int
(** Total width of a µFSM's concatenated state variables. *)

val state_value : t -> ufsm -> Bitvec.t -> string
(** The label for a state valuation (falls back to hex). *)

val occupied : t -> Sim.t -> (ufsm * Bitvec.t) list
(** The µFSMs outside their idle states after the simulator's last
    {!Sim.eval}, each with its state valuation, in [ufsms] order: the
    performing locations occupied this cycle, as the R_µPATH receiver sees
    them (§V-C2). *)

val all_state_valuations : t -> ufsm -> Bitvec.t list
(** Every constant valuation of the µFSM's state variables, idle included —
    the starting point of PL enumeration (§V-B1). *)

val signals : t -> Hdl.Netlist.signal list
(** Every netlist signal the metadata references (IFR slots, stage
    interface, µFSM registers, operand registers, ARF/memory, extra
    assumes), deduplicated and sorted — the merge-barrier set handed to
    the equivalence sweep so annotated semantics survive reduction. *)

val count_pcrs : t -> int
val count_ufsm_state_regs : t -> int
