(** µFSM/IFR metadata sidecar for imported netlists.

    A Yosys JSON netlist carries structure but none of the paper's Table
    II annotations.  The sidecar is a small JSON document shipped next to
    the netlist ([DESIGN.meta.json]) naming, {e by signal name}, the
    fetch-stage IFR slots, the operand stage, commit/flush, the µFSMs
    (performing-location state registers, idle states, PL labels), the
    operand taint sources, and the architectural state — everything
    {!Designs.Meta.t} needs, so an imported design plugs into
    {!Mupath.Synth} and {!Synthlc.Flow} unchanged.  See DESIGN.md §18
    for the schema.

    Every reference is by name and resolved against
    {!Hdl.Netlist.find_named}; unresolved names are collected (code F510)
    and reported together via {!Diag.Rejected}, as are schema errors
    (F511). *)

type t = {
  meta : Designs.Meta.t;
  iuv_pc : int;  (** IUV program-counter slot (§V-A constraint). *)
  stimulus : Designs.Stimulus.kind;
      (** The constrained-random family that drives the design (the
          ["stimulus"] field; default ["none"]). *)
}

val resolve : Hdl.Netlist.t -> Json.t -> t
(** Raises {!Diag.Rejected} with every unresolved name and schema
    violation. *)

val resolve_file : Hdl.Netlist.t -> string -> t

val of_meta :
  stimulus:Designs.Stimulus.kind -> iuv_pc:int -> Designs.Meta.t -> Json.t
(** Serialize annotations back out (the [synthlc export] path).  Raises
    [Failure] if an annotated signal is unnamed. *)
