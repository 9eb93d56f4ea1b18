(* Sweep-integration tests: checker tri-mode digest identity on the toy
   DUV and on the gated DUV (off / on / audit produce bit-identical
   synthesis results, with the audit's divergence tripwire armed
   throughout; the gated DUV's digest is pinned), admission of the
   committed gate-level ibex_lite example plus its E501–E503 counts and
   a structural digest apart from the word-level built-in's, and the
   sweep's whole trajectory on both committed examples. *)

module N = Hdl.Netlist
module E = Hdl.Equiv
module C = Mc.Checker
module Meta = Designs.Meta

let gl_json = "../examples/ibex_lite_gl.json"
let gl_meta = "../examples/ibex_lite_gl.meta.json"

(* Admission failure messages beat [Rejected _] in a test log. *)
let load_or_fail ?lint ~json_path ~meta_path () =
  try Frontend.Admission.load ?lint ~json_path ~meta_path () with
  | Frontend.Diag.Rejected r ->
    Alcotest.failf "admission rejected: %s"
      (String.concat "; "
         (List.filter_map
            (fun (x : Lint.Diagnostic.t) ->
              if x.Lint.Diagnostic.severity = Lint.Diagnostic.Error then
                Some x.Lint.Diagnostic.message
              else None)
            r.Lint.Diagnostic.diags))

(* --- tri-mode digest identity on the toy DUV ----------------------------- *)

let run_toy ~sweep meta =
  Mupath.Synth.run ~config:{ Test_mupath.toy_config with C.sweep } ~meta
    ~iuv:(Isa.make Isa.ADD) ~iuv_pc:2 ()

let run_gated ~sweep meta =
  Mupath.Synth.run ~config:{ Test_absint.gated_config with C.sweep } ~meta
    ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
    ~iuv_pc:Designs.Gated.iuv_pc ()

(* The gated DUV's annotations resolved by name over [nl], as an import
   with the exported sidecar would resolve them. *)
let gated_over nl =
  let sidecar =
    Frontend.Sidecar.of_meta ~stimulus:Designs.Stimulus.None
      ~iuv_pc:Designs.Gated.iuv_pc (Designs.Gated.build ())
  in
  (Frontend.Sidecar.resolve nl sidecar).Frontend.Sidecar.meta

let gated_gate_level () =
  gated_over (fst (Hdl.Gateify.run (Designs.Gated.build ()).Meta.nl))

let gated_reimported () =
  let js = Frontend.Yosys.export_string (Designs.Gated.build ()).Meta.nl in
  gated_over (Frontend.Yosys.import_string ~design:"gated" js).Frontend.Yosys.nl

let test_trimode_identity () =
  let d sweep =
    Mupath.Synth.result_digest
      (run_toy ~sweep (Test_mupath.toy_design ()))
  in
  let off = d C.Sweep_off in
  Alcotest.(check string) "sweep on reproduces the unswept digest" off
    (d C.Sweep_on);
  (* Audit re-runs every SAT-resolved cover on the unswept shadow engine
     and raises Failure on any verdict or witness divergence — a green
     check here is the cross-check itself. *)
  Alcotest.(check string) "sweep audit is silent and digest-identical" off
    (d C.Sweep_audit);
  (* The gated DUV: its gate-level variant in every mode, the word-level
     built-in and the built-in's export/import round trip all give one
     pinned digest. *)
  List.iter
    (fun (what, sweep, meta) ->
      Alcotest.(check string) ("gated " ^ what)
        "6246ff1859dcbccc2c19f7ef2315054d"
        (Mupath.Synth.result_digest (run_gated ~sweep meta)))
    [
      ("word-level", C.Sweep_off, Designs.Gated.build ());
      ("re-imported", C.Sweep_off, gated_reimported ());
      ("gate-level, sweep off", C.Sweep_off, gated_gate_level ());
      ("gate-level, sweep on", C.Sweep_on, gated_gate_level ());
      ("gate-level, sweep audit", C.Sweep_audit, gated_gate_level ());
    ]

(* --- committed examples -------------------------------------------------- *)

let test_gl_example_admission () =
  let d = load_or_fail ~json_path:gl_json ~meta_path:gl_meta () in
  let errors =
    List.filter
      (fun (x : Lint.Diagnostic.t) -> x.Lint.Diagnostic.severity = Lint.Diagnostic.Error)
      d.Frontend.Admission.report.Lint.Diagnostic.diags
  in
  Alcotest.(check int) "no admission errors" 0 (List.length errors);
  (* µLint's equivalence pass runs the same sweep kernel at admission. *)
  Alcotest.(check (list int)) "E501 / E502 / E503 counts" [ 484; 62; 0 ]
    (Test_frontend.code_counts d.Frontend.Admission.report
       [ "E501"; "E502"; "E503" ]);
  let meta = d.Frontend.Admission.meta in
  let builtin = Designs.Ibex.build () in
  (* The gate-level variant is a different structure: a verdict store
     keeps the two apart.  That it behaves like the built-in is the
     frontend suite's byte-identical [sim] pin. *)
  Alcotest.(check bool) "structural digest differs from word-level" true
    (N.digest meta.Meta.nl <> N.digest builtin.Meta.nl)

(* Sweep an admitted example (µLint off, the sidecar's signals as merge
   barriers) and pin its whole trajectory: the merge counts, the miter
   queries it issued, refuted and gave up on, the patterns it simulated
   and the reduced netlist's digest.  A change to the sweep's patterns,
   its SAT queries, their order or its merge rules moves them. *)
let check_sweep_trajectory ~json_path ~meta_path ~merges ~queries ~patterns
    ~digest =
  let d = load_or_fail ~lint:false ~json_path ~meta_path () in
  let meta = d.Frontend.Admission.meta in
  let red, _image, stats = E.reduce ~barriers:(Meta.signals meta) meta.Meta.nl in
  Alcotest.(check (triple int int int)) "comb nodes / merged / classes" merges
    (stats.E.comb_nodes, stats.E.merged, stats.E.classes);
  Alcotest.(check (triple int int int)) "queries / refuted / unknown" queries
    (stats.E.sat_queries, stats.E.sat_refuted, stats.E.sat_unknown);
  Alcotest.(check int) "patterns" patterns stats.E.patterns;
  Alcotest.(check string) "reduced netlist digest" digest (N.digest red);
  stats

let test_gl_example_sweep_ratio () =
  let stats =
    check_sweep_trajectory ~json_path:gl_json ~meta_path:gl_meta
      ~merges:(7581, 6338, 447) ~queries:(6752, 413, 0) ~patterns:477
      ~digest:"9a560654c7ed3f4dd8169821328540cb"
  in
  Alcotest.(check bool)
    (Printf.sprintf "gate-level sweep merges >= 20%% (%d/%d)" stats.E.merged
       stats.E.comb_nodes)
    true
    (float_of_int stats.E.merged
    >= 0.20 *. float_of_int stats.E.comb_nodes)

let test_ibex_example_sweep () =
  ignore
    (check_sweep_trajectory ~json_path:Test_frontend.example_json
       ~meta_path:Test_frontend.example_meta
       ~merges:(946, 776, 108) ~queries:(882, 105, 0) ~patterns:169
       ~digest:"4a79aab6a285c6ce7d65fd4a0654680d")

(* A fresh temporary directory for [f], removed afterwards. *)
let with_tmpdir f =
  let dir = Filename.temp_file "synthlc_sweep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  Fun.protect (fun () -> f dir) ~finally:(fun () -> rm dir)

let suite =
  ( "sweep",
    [
      Alcotest.test_case "tri-mode synthesis digest identity" `Quick
        test_trimode_identity;
      Alcotest.test_case "gate-level example admits, structural digest differs"
        `Quick test_gl_example_admission;
      Alcotest.test_case "gate-level example sweeps >= 20%" `Quick
        test_gl_example_sweep_ratio;
      Alcotest.test_case "word-level example sweep trajectory" `Quick
        test_ibex_example_sweep;
    ] )
