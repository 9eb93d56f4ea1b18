(** Cell-level information-flow tracking (CellIFT-style) instrumentation
    (§V-C1).

    [instrument] extends a netlist in place with one shadow taint bit per
    data bit: each combinational cell gets the shadow logic of its
    {!Hdl.Taint} rule, and each register a shadow taint register.

    Three knobs mirror SynthLC's usage:
    - [inject]: (register, 1-bit condition) pairs — while the condition
      holds, the register's shadow is forced all-ones.  SynthLC points this
      at an operand register, conditioned on the transmitter occupying the
      issue stage (Fig. 7).
    - [blocked]: registers whose shadow is pinned to zero — the ARF and
      AMEM, blocking architectural taint propagation between instruction
      outputs and inputs (§V-A).
    - [flush]: an optional 1-bit signal; while it holds, every shadow
      register {e except} those in [persistent] is cleared.  This is the
      paper's second "sticky" taint bit mechanism enabling Assumption 3
      (static transmitters): after the transmitter dematerializes, only
      taint lodged in persistent state (cache arrays, memories) survives. *)

type t

val instrument :
  ?precise:bool ->
  ?inject:(Hdl.Netlist.signal * Hdl.Netlist.signal) list ->
  ?blocked:Hdl.Netlist.signal list ->
  ?flush:Hdl.Netlist.signal ->
  ?persistent:Hdl.Netlist.signal list ->
  Hdl.Netlist.t ->
  t
(** Appends shadow logic for every node present at call time.  Registers
    with enables are not supported (the shadow next-state logic would drop
    taint on hold cycles): a netlist containing one raises
    [Invalid_argument] naming the register.  [precise] (default true)
    selects the value-aware rules for AND/OR/MUX cells; [false] degrades
    them to taint-union — the ablation knob for measuring how cell-level
    precision controls §VII-B1 false positives.  {!Hdl.Analysis.taint_reach}
    over-approximates the shadow built here only when run with the same
    [precise]. *)

val taint_of : t -> Hdl.Netlist.signal -> Hdl.Netlist.signal
(** The shadow signal carrying a node's per-bit taint. *)

val any_taint : t -> Hdl.Netlist.signal -> Hdl.Netlist.signal
(** 1-bit: some bit of the node is tainted. *)
