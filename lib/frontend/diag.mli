(** Frontend admission diagnostics.

    The frontend reuses {!Lint.Diagnostic} (codes, severities, JSON
    artifact format) under its own F5xx namespace, so `synthlc import
    --json` output drops into the same CI dashboards as `synthlc lint
    --json`.

    Rejection is total: an importer or sidecar error never yields a
    half-built netlist — it raises {!Rejected} carrying the complete
    collected report, so one failed admission surfaces every offending
    cell, net, and annotation at once. *)

exception Rejected of Lint.Diagnostic.report

val reject : design:string -> Lint.Diagnostic.t list -> 'a
(** Raise {!Rejected} with the given diagnostics (errors first is the
    caller's concern; order is preserved). *)

val error : ?signal_name:string -> code:string -> string -> Lint.Diagnostic.t
val warning : ?signal_name:string -> code:string -> string -> Lint.Diagnostic.t
val info : ?signal_name:string -> code:string -> string -> Lint.Diagnostic.t

(** F5xx code catalogue (summaries live in {!Lint.Diagnostic.rule_summary}):
    - F501 unsupported cell type
    - F502 malformed netlist JSON
    - F503 clock discipline violation
    - F504 x/z bit treated as constant 0
    - F505 undriven net
    - F506 multiply-driven net
    - F507 combinational cycle among imported cells
    - F508 imported netlist failed validation
    - F509 netname not representable word-level
    - F510 sidecar names an unknown signal
    - F511 malformed sidecar
    - F512 malformed cell connection or parameter
    - F513 fetch slots with no stimulus to pin the IUV (warning) *)
