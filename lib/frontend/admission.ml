(* Admission pipeline: import -> sidecar -> mandatory µLint.  See
   admission.mli. *)

module D = Lint.Diagnostic

type design = {
  meta : Designs.Meta.t;
  iuv_pc : int;
  stimulus : Designs.Stimulus.kind;
  report : D.report;
}

(* A design with a program input but no stimulus family would have its
   fetch slots filled with random words, so the IUV is never pinned and
   synthesis answers for some other instruction: F513. *)
let unpinned_fetch (sc : Sidecar.t) =
  let slots = Designs.Stimulus.fetch_slots sc.Sidecar.meta.Designs.Meta.nl in
  match (sc.Sidecar.stimulus, slots) with
  | Designs.Stimulus.None, _ :: _ ->
    [
      Diag.warning ~code:"F513" ~signal_name:"fetch_pc"
        (Printf.sprintf
           "the sidecar's stimulus is none, but the netlist has fetch slots \
            %s: the IUV is never pinned into them (set \"stimulus\" to core \
            or ibex)"
           (String.concat ", " slots));
    ]
  | _ -> []

let load ?top ?(lint = true) ~json_path ~meta_path () =
  let { Yosys.nl; warnings } = Yosys.import_file ?top json_path in
  let sc = Sidecar.resolve_file nl meta_path in
  let meta = sc.Sidecar.meta in
  let lint_diags = if lint then (Lint.Driver.run_design meta).D.diags else [] in
  let report =
    {
      D.design = meta.Designs.Meta.design_name;
      diags = warnings @ unpinned_fetch sc @ lint_diags;
    }
  in
  if List.exists (fun d -> d.D.severity = D.Error) report.D.diags then
    raise (Diag.Rejected report);
  { meta; iuv_pc = sc.Sidecar.iuv_pc; stimulus = sc.Sidecar.stimulus; report }
