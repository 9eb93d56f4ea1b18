(* Yosys-JSON frontend tests: JSON parser round trips, golden parse of the
   committed example (digest-identical to the built-in elaboration),
   per-class rejection of unsupported constructs with messages naming the
   cell type and instance, sidecar resolution errors, qcheck round-trip
   over fuzz-generated pipelines, the CLI exit-2 agreement between
   mupath/synthlc/lint/sim on unknown design names, the refusal of a
   negative --depth or --episodes, and [sim]'s exit contract and pinned
   output. *)

module J = Frontend.Json
module Y = Frontend.Yosys
module N = Hdl.Netlist
module D = Lint.Diagnostic

let example_json = "../examples/ibex_lite.json"
let example_meta = "../examples/ibex_lite.meta.json"
let cli = "../bin/synthlc_cli.exe"

(* --- Json --------------------------------------------------------------- *)

let test_json_basics () =
  let j = J.parse_string {| {"a": [1, -2, 3], "b": "x\nyA", "c": {"d": true, "e": null}, "f": 2.5} |} in
  Alcotest.(check (option int)) "int" (Some 1)
    (Option.bind (J.member "a" j) (fun l ->
         match l with J.List (x :: _) -> J.to_int x | _ -> None));
  Alcotest.(check (option string)) "escapes" (Some "x\nyA")
    (Option.bind (J.member "b" j) J.to_str);
  (* print -> parse is the identity *)
  let j2 = J.parse_string (J.to_string j) in
  Alcotest.(check bool) "print/parse round trip" true (j = j2);
  let j3 = J.parse_string (J.to_string ~compact:true j) in
  Alcotest.(check bool) "compact print/parse round trip" true (j = j3)

let test_json_errors () =
  List.iter
    (fun src ->
      match J.parse_string src with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "parsed malformed input %S" src)
    [ "{"; "[1,]"; "{\"a\" 1}"; "\"unterminated"; "01"; "nul"; "{} trailing" ]

(* --- golden example ------------------------------------------------------ *)

let test_golden_example () =
  let { Y.nl; warnings } = Y.import_file example_json in
  Alcotest.(check (list string)) "no warnings" []
    (List.map (fun (d : D.t) -> d.D.message) warnings);
  let builtin = Designs.Ibex.build () in
  Alcotest.(check string) "digest identical to built-in ibex_lite"
    (N.digest builtin.Designs.Meta.nl)
    (N.digest nl);
  let sc = Frontend.Sidecar.resolve_file nl example_meta in
  Alcotest.(check int) "iuv_pc" 2 sc.Frontend.Sidecar.iuv_pc;
  Alcotest.(check bool) "stimulus ibex" true
    (sc.Frontend.Sidecar.stimulus = Designs.Stimulus.Ibex);
  let meta = sc.Frontend.Sidecar.meta in
  Alcotest.(check int) "uFSM count"
    (List.length builtin.Designs.Meta.ufsms)
    (List.length meta.Designs.Meta.ufsms);
  Alcotest.(check int) "ARF size"
    (List.length builtin.Designs.Meta.arf)
    (List.length meta.Designs.Meta.arf)

(* The CLI's exit code and combined output for [args]. *)
let run_cli args =
  let out = Filename.temp_file "synthlc_cli" ".txt" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" cli args out) in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* The CLI's [report digest:] line for [args]. *)
let cli_report_digest args =
  let code, text = run_cli args in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) (args ^ " exits 0") 0 code;
  let prefix = "report digest: " in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      lines
  with
  | Some l -> String.sub l n (String.length l - n)
  | None -> Alcotest.failf "%s printed no report digest" args

(* How many diagnostics of each code in [codes] a report carries. *)
let code_counts (r : D.report) codes =
  List.map
    (fun code ->
      List.length (List.filter (fun (x : D.t) -> x.D.code = code) r.D.diags))
    codes

(* Admission, then [mupath] ADD on the admitted example with every CLI
   default: an absolute pin on one report digest, so a change anywhere
   along the import -> synthesis -> checker -> SAT path that alters a
   verdict or witness fails here. *)
let test_example_admission () =
  let d =
    Frontend.Admission.load ~json_path:example_json ~meta_path:example_meta ()
  in
  let errors =
    List.filter
      (fun (x : D.t) -> x.D.severity = D.Error)
      d.Frontend.Admission.report.D.diags
  in
  Alcotest.(check int) "no admission errors" 0 (List.length errors);
  (* µLint's equivalence pass: the sweep's proven classes, reported. *)
  Alcotest.(check (list int)) "E501 / E502 / E503 counts" [ 150; 15; 0 ]
    (code_counts d.Frontend.Admission.report [ "E501"; "E502"; "E503" ]);
  Alcotest.(check string) "mupath ADD report digest"
    "16387a7c6c6c0e8ec71e318557630819"
    (cli_report_digest
       (Printf.sprintf "mupath -d %s -i 'add r1, r2, r3'" example_json))

(* --- rejection per unsupported-cell class -------------------------------- *)

let wrap_module cells =
  Printf.sprintf
    {|{ "modules": { "m": { "attributes": {"top": 1},
        "ports": {
          "clk": {"direction": "input", "bits": [2]},
          "a": {"direction": "input", "bits": [3]},
          "q": {"direction": "output", "bits": [4]}
        },
        "cells": { %s },
        "netnames": {} } } }|}
    cells

let reject_msgs src =
  match Y.import_string ~design:"t" src with
  | _ -> Alcotest.fail "import unexpectedly admitted the design"
  | exception Frontend.Diag.Rejected r ->
    List.map (fun (d : D.t) -> (d.D.code, d.D.message)) r.D.diags

let check_rejects ~what ~code ~needles cells =
  let msgs = reject_msgs (wrap_module cells) in
  let all = String.concat "\n" (List.map snd msgs) in
  Alcotest.(check bool)
    (what ^ ": carries code " ^ code)
    true
    (List.exists (fun (c, _) -> c = code) msgs);
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and al = String.length all in
        let rec go i = i + nl <= al && (String.sub all i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message mentions %S" what needle)
        true found)
    needles

let test_reject_memory () =
  check_rejects ~what:"memory" ~code:"F501"
    ~needles:[ "$mem_v2"; "mem0"; "memory" ]
    {|"mem0": {"type": "$mem_v2", "parameters": {}, "connections": {"RD_DATA": [4]}}|}

let test_reject_latch () =
  check_rejects ~what:"latch" ~code:"F501"
    ~needles:[ "$dlatch"; "lat1"; "latch" ]
    {|"lat1": {"type": "$dlatch", "parameters": {},
       "connections": {"Q": [4], "D": [3], "EN": [3]}}|}

let test_reject_assert () =
  check_rejects ~what:"$assert" ~code:"F501"
    ~needles:[ "$assert"; "chk"; "formal" ]
    {|"chk": {"type": "$assert", "parameters": {}, "connections": {"A": [3], "EN": [3]}},
      "buf": {"type": "$pos", "parameters": {}, "connections": {"A": [3], "Y": [4]}}|}

let test_reject_unknown () =
  check_rejects ~what:"unknown cell" ~code:"F501"
    ~needles:[ "$frobnicate"; "u7" ]
    {|"u7": {"type": "$frobnicate", "parameters": {}, "connections": {"Y": [4], "A": [3]}}|}

let test_reject_negative_clock () =
  check_rejects ~what:"negative clock polarity" ~code:"F503"
    ~needles:[ "$dff"; "r0"; "polarity" ]
    {|"r0": {"type": "$dff", "parameters": {"WIDTH": 1, "CLK_POLARITY": 0},
       "connections": {"CLK": [2], "D": [3], "Q": [4]}}|}

let test_rejections_collected () =
  (* Every unsupported cell is named before rejection — not just the
     first. *)
  let msgs =
    reject_msgs
      (wrap_module
         {|"mem0": {"type": "$mem_v2", "parameters": {}, "connections": {"RD_DATA": [4]}},
           "lat1": {"type": "$dlatch", "parameters": {}, "connections": {"Q": [5], "D": [3], "EN": [3]}},
           "chk": {"type": "$assert", "parameters": {}, "connections": {"A": [3], "EN": [3]}}|})
  in
  Alcotest.(check int) "all three cells reported" 3
    (List.length (List.filter (fun (c, _) -> c = "F501") msgs))

let test_reject_malformed () =
  let msgs =
    match Y.import_string ~design:"t" "{ \"modules\": " with
    | _ -> Alcotest.fail "parsed truncated JSON"
    | exception Frontend.Diag.Rejected r ->
      List.map (fun (d : D.t) -> d.D.code) r.D.diags
  in
  Alcotest.(check (list string)) "truncated JSON is F502" [ "F502" ] msgs

let test_xz_zeroed_with_warning () =
  let src =
    wrap_module
      {|"inv": {"type": "$not", "parameters": {"A_WIDTH": 2, "Y_WIDTH": 1},
         "connections": {"A": ["x", "0"], "Y": [4]}}|}
  in
  let { Y.nl = _; warnings } = Y.import_string ~design:"t" src in
  Alcotest.(check bool) "F504 warning emitted" true
    (List.exists (fun (d : D.t) -> d.D.code = "F504") warnings)

(* --- sidecar errors ------------------------------------------------------ *)

let import_example () = (Y.import_file example_json).Y.nl

let test_sidecar_unknown_signal () =
  let nl = import_example () in
  let sidecar =
    J.parse_string
      {|{"design": "ibex_lite", "iuv_pc": 2,
         "ifrs": [{"valid": "no_such_signal", "pc": "if_pc", "word": "if_i"}],
         "operand_stage": {"valid": "operand_stage_valid", "pc": "ex_pc"},
         "commit": "commit", "commit_pc": "commit_pc", "flush": "flush"}|}
  in
  match Frontend.Sidecar.resolve nl sidecar with
  | _ -> Alcotest.fail "resolved a sidecar naming an unknown signal"
  | exception Frontend.Diag.Rejected r ->
    let d =
      List.find (fun (d : D.t) -> d.D.code = "F510") r.D.diags
    in
    Alcotest.(check (option string)) "names the missing signal"
      (Some "no_such_signal") d.D.signal_name

let test_sidecar_malformed () =
  let nl = import_example () in
  match Frontend.Sidecar.resolve nl (J.parse_string {|{"iuv_pc": "two"}|}) with
  | _ -> Alcotest.fail "resolved a malformed sidecar"
  | exception Frontend.Diag.Rejected r ->
    Alcotest.(check bool) "F511 diagnostics" true
      (List.for_all (fun (d : D.t) -> d.D.code = "F511") r.D.diags
      && r.D.diags <> [])

(* --- round trip ---------------------------------------------------------- *)

let roundtrip_ok meta =
  let nl = meta.Designs.Meta.nl in
  let d0 = N.digest nl in
  let { Y.nl = nl'; warnings } =
    Y.import_string ~design:"rt" (Y.export_string nl)
  in
  warnings = [] && String.equal d0 (N.digest nl')

(* Each built-in's netlist digest is pinned too, so an elaboration change
   shows here even when export and import still agree on it. *)
let test_roundtrip_builtins () =
  List.iter
    (fun (name, meta, digest) ->
      Alcotest.(check string) (name ^ " netlist digest") digest
        (N.digest meta.Designs.Meta.nl);
      Alcotest.(check bool) (name ^ " round-trips digest-identically") true
        (roundtrip_ok meta))
    [
      ( "cva6_lite",
        Designs.Core.build Designs.Core.baseline,
        "8d3010b7d28079273795625262afd463" );
      ("ibex_lite", Designs.Ibex.build (), "e31bafec8010ddd119b3ed1116ef414e");
      ("gated", Designs.Gated.build (), "c0daa6d8982c2e2405890b6fe1605ea8");
      ("cva6_cache", Designs.Cache.build (), "476f8da104bb74a9b465d6984c20069f");
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~count:12 ~name:"fuzz-generated designs round-trip"
    QCheck.(map (fun i -> i land 0xff) int)
    (fun i ->
      let cfg = Fuzz.Gen.config_for ~seed:5 i in
      roundtrip_ok (Fuzz.Gen.build cfg))

(* --- CLI contracts ------------------------------------------------------- *)

let exit_of cmdline =
  Sys.command (Printf.sprintf "%s >/dev/null 2>&1" cmdline)

let test_cli_unknown_design_agreement () =
  List.iter
    (fun sub ->
      Alcotest.(check int)
        (sub ^ " exits 2 on an unknown design")
        2
        (exit_of (Printf.sprintf "%s %s" cli sub)))
    [
      "mupath -d no_such_design -i 'add r1, r2, r3'";
      "synthlc -d no_such_design";
      "lint no_such_design";
      "sim -d no_such_design";
    ]

(* [f path] for a temporary file holding [text]. *)
let with_file text f =
  let path = Filename.temp_file "synthlc_test" ".tmp" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [sim] refuses what it cannot drive with exit 2 and a message, never an
   uncaught exception: a design with no program input, the cache DUV, and
   a program that does not assemble (the message names the mnemonic).
   [scsafe] does the same for a bad program or a [--secret] outside the
   ARF, and both refuse a negative count as a usage error (124). *)
let test_cli_sim_exit_contract () =
  with_file "add r1, r2, r3\n" (fun prog ->
      List.iter
        (fun (d, needle) ->
          let code, text = run_cli (Printf.sprintf "sim -d %s -p %s" d prog) in
          Alcotest.(check int) ("sim -d " ^ d ^ " exits 2") 2 code;
          Alcotest.(check bool) ("sim -d " ^ d ^ " says why") true
            (Test_formats.contains text needle))
        [ ("gated", "no program input"); ("cva6_cache", "cache DUV") ]);
  with_file "add r1, r2, r3\nbogus r1\n" (fun prog ->
      let code, text = run_cli (Printf.sprintf "sim -d ibex_lite -p %s" prog) in
      Alcotest.(check int) "sim with bad assembly exits 2" 2 code;
      Alcotest.(check bool) "the error names the mnemonic" true
        (Test_formats.contains text "\"bogus\""));
  List.iter
    (fun (args, want, needles) ->
      let code, text = run_cli args in
      Alcotest.(check int) (args ^ " exit code") want code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) (args ^ " names " ^ needle) true
            (Test_formats.contains text needle))
        needles)
    [
      ("scsafe -p 'bogus r1'", 2, [ "\"bogus\"" ]);
      ("scsafe --secret=3", 2, [ "--secret"; "0..2" ]);
      ("scsafe --secret=-1", 2, [ "--secret"; "0..2" ]);
      ("scsafe --trials=-3", 124, [ "--trials" ]);
      ("sim -d ibex_lite --cycles=-2", 124, [ "--cycles" ]);
    ];
  Alcotest.check_raises "Scsafe.find_violation refuses a secret outside the ARF"
    (Invalid_argument "Scsafe.find_violation: secret_reg 3 outside the ARF (0..2)")
    (fun () ->
      ignore
        (Synthlc.Scsafe.find_violation ~design:Designs.Ibex.build ~program:[]
           ~secret_reg:3 ()))

(* The simulator end to end: [sim]'s stdout lists PL occupancy per cycle
   and the final ARF, which the golden-model tests do not check.  Both
   imported examples, word-level and gate-level, print byte-identical
   output to their built-in.  cva6_op is the one design whose pipeline
   reads the second fetch slot, so its pin is what catches a slot fed the
   wrong PC. *)
let test_cli_sim_pins () =
  with_file
    "add r1, r2, r3\ndiv r3, r1, r2\nlw r2, 4(r1)\nsw r3, 0(r2)\n\
     mul r1, r3, r2\nbeq r1, r2, 8\nadd r2, r2, r1\n"
    (fun prog ->
      let out d =
        let code, text =
          run_cli (Printf.sprintf "sim -d %s -p %s --cycles 48" d prog)
        in
        Alcotest.(check int) ("sim -d " ^ d ^ " exits 0") 0 code;
        text
      in
      let md5 d = Digest.to_hex (Digest.string (out d)) in
      Alcotest.(check string) "ibex_lite output" "8c3cd232ad249eca042583e1b1b87e1f"
        (md5 "ibex_lite");
      Alcotest.(check string) "cva6_lite output" "ef16c8dea7b6424e3a9ee1c9bebc5fd1"
        (md5 "cva6_lite");
      Alcotest.(check string) "cva6_op output" "7baf6e5b8d0b863e685c6dc2c0cf3211"
        (md5 "cva6_op");
      Alcotest.(check string) "imported example prints the built-in's output"
        (out "ibex_lite") (out example_json);
      Alcotest.(check string) "gate-level example prints the built-in's output"
        (out "ibex_lite") (out "../examples/ibex_lite_gl.json"))

(* [scsafe]'s paired simulations end to end.  The violations are found on
   the third and fourth trial, so earlier trials' observations ran on the
   same simulator first. *)
let test_cli_scsafe_pins () =
  List.iter
    (fun (args, want) ->
      let code, text = run_cli ("scsafe" ^ args) in
      Alcotest.(check int) ("scsafe" ^ args ^ " exits 0") 0 code;
      Alcotest.(check string) ("scsafe" ^ args ^ " output") want text)
    [
      ("", "SC-Safe VIOLATED: secret r1 = 0x67 vs 0x74 diverges observations at cycle 5\n");
      ( " --secret 1",
        "SC-Safe VIOLATED: secret r2 = 0x27 vs 0x94 diverges observations at cycle 5\n" );
      (" --secret 2 --trials 8", "no violation found in 8 trials\n");
    ]

(* A misspelt transmitter mnemonic or revisit-count label fails before
   any synthesis runs and names the offender, instead of reading as "no
   leakage" or surfacing as an uncaught harness exception. *)
let test_cli_unknown_names () =
  let code, text =
    run_cli "synthlc -d ibex_lite -i 'div r1, r2, r3' -t dvi,add"
  in
  Alcotest.(check int) "synthlc -t with an unknown mnemonic exits 124" 124 code;
  Alcotest.(check bool) "the usage error names the mnemonic" true
    (Test_formats.contains text "\"dvi\"");
  let code, text =
    run_cli "mupath -d gated -i 'add r1, r2, r3' --counts bogus"
  in
  Alcotest.(check int) "mupath --counts with an unknown label exits 2" 2 code;
  Alcotest.(check bool) "the error names the label and the design's labels"
    true
    (Test_formats.contains text "bogus" && Test_formats.contains text "A, B, G1")

(* A negative --depth or --episodes is refused before any work, naming the
   flag: a usage error (124) for mupath and synthlc, fuzz's bad-usage exit
   2 (as for --count 0).  Depth 0 stays valid, and the checker itself
   refuses a negative depth by name. *)
let test_cli_negative_counts () =
  List.iter
    (fun (args, flag) ->
      let code, text = run_cli args in
      Alcotest.(check int) (args ^ " exits 124") 124 code;
      Alcotest.(check bool) (args ^ " names " ^ flag) true
        (Test_formats.contains text flag))
    [
      ("mupath -d ibex_lite --depth=-3", "--depth");
      ("synthlc -d ibex_lite --depth=-3", "--depth");
      ("mupath --depth=-1 --episodes=0", "--depth");
      ("synthlc -d gated --episodes=-1", "--episodes");
    ];
  List.iter
    (fun (args, flag) ->
      let code, text = run_cli (args ^ " --out /dev/null") in
      Alcotest.(check int) (args ^ " exits 2") 2 code;
      Alcotest.(check bool) (args ^ " names " ^ flag) true
        (Test_formats.contains text flag))
    [ ("fuzz --depth=-2 --count 1", "--depth"); ("fuzz --episodes=-1 --count 1", "--episodes") ];
  Alcotest.(check int) "mupath --depth=0 exits 0" 0
    (exit_of
       (Printf.sprintf "%s mupath -d gated --depth=0 --episodes=0 -i 'add r1, r2, r3'" cli));
  let nl = Hdl.Netlist.create "one_input" in
  ignore (Hdl.Netlist.input nl "go" 1);
  Alcotest.check_raises "Checker.create refuses a negative depth"
    (Invalid_argument "Checker.create: negative bmc_depth") (fun () ->
      ignore
        (Mc.Checker.create
           ~config:{ Mc.Checker.default_config with Mc.Checker.bmc_depth = -1 }
           ~assumes:[] nl))

let test_cli_import_contract () =
  Alcotest.(check int) "import of the committed example exits 0" 0
    (exit_of (Printf.sprintf "%s import %s --meta %s" cli example_json example_meta));
  Alcotest.(check int) "import of a missing file exits 2" 2
    (exit_of (Printf.sprintf "%s import no_such_file.json" cli))

(* A sidecar with no stimulus (["none"], or the field left out) over a
   netlist with fetch slots leaves the IUV unpinned: admission warns with
   F513 naming the slots, and [import] exits 1.  Designs that carry their
   stimulus, or have no program input, draw no F513. *)
let f513 ~json_path ~meta_path =
  let d = Frontend.Admission.load ~lint:false ~json_path ~meta_path () in
  List.filter
    (fun (x : D.t) -> x.D.code = "F513")
    d.Frontend.Admission.report.D.diags

let test_unpinned_fetch_is_f513 () =
  let fields = Option.get (J.to_assoc (J.parse_file example_meta)) in
  let none =
    List.map (function "stimulus", _ -> ("stimulus", J.String "none") | f -> f)
  in
  List.iter
    (fun (what, fields) ->
      with_file (J.to_string (J.Assoc fields)) @@ fun meta_path ->
      (match f513 ~json_path:example_json ~meta_path with
      | [ w ] ->
        Alcotest.(check bool) (what ^ ": F513 is a warning") true
          (w.D.severity = D.Warning);
        Alcotest.(check bool) (what ^ ": F513 names the slot") true
          (Test_formats.contains w.D.message "if_instr_in")
      | l -> Alcotest.failf "%s: %d F513 findings, expected 1" what (List.length l));
      let code, text =
        run_cli (Printf.sprintf "import %s --meta %s" example_json meta_path)
      in
      Alcotest.(check int) (what ^ ": import exits 1") 1 code;
      Alcotest.(check bool) (what ^ ": import prints F513") true
        (Test_formats.contains text "F513"))
    [
      ("stimulus none", none fields);
      ("stimulus absent", List.filter (fun (k, _) -> k <> "stimulus") fields);
    ];
  List.iter
    (fun (json_path, meta_path) ->
      Alcotest.(check int) (json_path ^ ": no F513") 0
        (List.length (f513 ~json_path ~meta_path)))
    [
      (example_json, example_meta);
      ("../examples/ibex_lite_gl.json", "../examples/ibex_lite_gl.meta.json");
    ];
  (* The DUVs without a program input have no fetch slots, so their
     exports admit without F513 even under ["stimulus": "none"]. *)
  List.iter
    (fun (name, (meta : Designs.Meta.t)) ->
      Alcotest.(check (list string)) (name ^ " fetch slots") []
        (Designs.Stimulus.fetch_slots meta.Designs.Meta.nl);
      let sidecar =
        Frontend.Sidecar.of_meta ~stimulus:Designs.Stimulus.None ~iuv_pc:2 meta
      in
      with_file (Y.export_string meta.Designs.Meta.nl) @@ fun json_path ->
      with_file (J.to_string sidecar) @@ fun meta_path ->
      Alcotest.(check int) (name ^ ": no F513") 0
        (List.length (f513 ~json_path ~meta_path)))
    [ ("gated", Designs.Gated.build ()); ("cva6_cache", Designs.Cache.build ()) ];
  Alcotest.(check (list string)) "cva6_lite fetch slots"
    [ "if_instr_in0"; "if_instr_in1" ]
    (Designs.Stimulus.fetch_slots
       (Designs.Core.build Designs.Core.baseline).Designs.Meta.nl)

let suite =
  ( "frontend",
    [
      Alcotest.test_case "json parse/print basics" `Quick test_json_basics;
      Alcotest.test_case "json parse errors" `Quick test_json_errors;
      Alcotest.test_case "golden parse of committed example" `Quick
        test_golden_example;
      Alcotest.test_case "committed example passes admission" `Quick
        test_example_admission;
      Alcotest.test_case "reject memory cells by name" `Quick
        test_reject_memory;
      Alcotest.test_case "reject latches by name" `Quick test_reject_latch;
      Alcotest.test_case "reject $assert by name" `Quick test_reject_assert;
      Alcotest.test_case "reject unknown cells by name" `Quick
        test_reject_unknown;
      Alcotest.test_case "reject negative clock polarity" `Quick
        test_reject_negative_clock;
      Alcotest.test_case "all unsupported cells collected" `Quick
        test_rejections_collected;
      Alcotest.test_case "malformed JSON is F502" `Quick test_reject_malformed;
      Alcotest.test_case "x/z bits zeroed with F504 warning" `Quick
        test_xz_zeroed_with_warning;
      Alcotest.test_case "sidecar unknown signal is F510" `Quick
        test_sidecar_unknown_signal;
      Alcotest.test_case "malformed sidecar is F511" `Quick
        test_sidecar_malformed;
      Alcotest.test_case "built-ins round-trip digest-identically" `Quick
        test_roundtrip_builtins;
      QCheck_alcotest.to_alcotest qcheck_roundtrip;
      Alcotest.test_case "mupath/synthlc/lint agree on exit 2" `Quick
        test_cli_unknown_design_agreement;
      Alcotest.test_case "import CLI exit contract" `Quick
        test_cli_import_contract;
      Alcotest.test_case "unpinned fetch slots are F513" `Quick
        test_unpinned_fetch_is_f513;
      Alcotest.test_case "unknown -t mnemonic and --counts label rejected"
        `Quick test_cli_unknown_names;
      Alcotest.test_case "negative --depth/--episodes rejected" `Quick
        test_cli_negative_counts;
      Alcotest.test_case "sim exit contract" `Quick test_cli_sim_exit_contract;
      Alcotest.test_case "sim output pinned" `Quick test_cli_sim_pins;
      Alcotest.test_case "scsafe output pinned" `Quick test_cli_scsafe_pins;
    ] )
