(** Admission pipeline for imported designs.

    [load] is the single entry point the CLI uses for [.json] designs:
    parse + import the Yosys netlist ({!Yosys}), resolve the metadata
    sidecar ({!Sidecar}), then run µLint (L/T/A-series) as the mandatory
    admission filter.  Any error-severity finding — frontend (F5xx) or
    lint — raises {!Diag.Rejected} with the combined report; no checker
    ever sees an unvetted design.  A sidecar whose stimulus is [none] (or
    absent) for a netlist with a [fetch_pc] and fetch slots
    ({!Designs.Stimulus.fetch_slots}) draws warning F513: no stimulus
    would pin the IUV into those slots. *)

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
    [true]; [false] skips µLint, for timing the import alone or loading a
    design that already passed admission.  A run that needs several
    instances of an admitted design takes a {!Designs.Meta.copy} of its
    [meta] per instance rather than loading it again. *)
