(* Admission pipeline: import -> sidecar -> mandatory µLint.  See
   admission.mli. *)

module D = Lint.Diagnostic

type design = {
  meta : Designs.Meta.t;
  iuv_pc : int;
  stimulus : Designs.Stimulus.kind;
  report : D.report;
}

let load ?top ?(lint = true) ~json_path ~meta_path () =
  let { Yosys.nl; warnings } = Yosys.import_file ?top json_path in
  let sc = Sidecar.resolve_file nl meta_path in
  let meta = sc.Sidecar.meta in
  let lint_diags = if lint then (Lint.Driver.run_design meta).D.diags else [] in
  let report =
    { D.design = meta.Designs.Meta.design_name; diags = warnings @ lint_diags }
  in
  if List.exists (fun d -> d.D.severity = D.Error) report.D.diags then
    raise (Diag.Rejected report);
  { meta; iuv_pc = sc.Sidecar.iuv_pc; stimulus = sc.Sidecar.stimulus; report }
