(** Admission pipeline for imported designs.

    [load] is the single entry point the CLI uses for [.json] designs:
    parse + import the Yosys netlist ({!Yosys}), resolve the metadata
    sidecar ({!Sidecar}), then run µLint (L/T/A-series) as the mandatory
    admission filter.  Any error-severity finding — frontend (F5xx) or
    lint — raises {!Diag.Rejected} with the combined report; no checker
    ever sees an unvetted design. *)

type design = {
  meta : Designs.Meta.t;
  iuv_pc : int;
  stimulus : Designs.Stimulus.kind;
  report : Lint.Diagnostic.report;
      (** Admission findings that did not block: frontend warnings plus
          lint warnings/infos. *)
}

val load :
  ?top:string -> ?lint:bool -> json_path:string -> meta_path:string -> unit ->
  design
(** Raises {!Diag.Rejected} on any admission error.  [lint] defaults to
    [true]; pass [false] only when re-building a design that already
    passed admission this run (e.g. the per-task rebuild thunk —
    {!Mupath.Synth} consumes its meta). *)
