(* Design-space fuzzing tests: generator determinism (same seed + config
   => identical netlist digest), generated designs always pass
   Netlist.validate and uLint admission, seeded metadata defects are
   caught by the lint oracle, and shrinking is sound — a shrunk config
   still reproduces the original oracle failure class (qcheck over the
   parameter lattice).  One engine-level battery on the minimal config
   keeps the expensive oracles (jobs/cache/prune/sweep/grid) covered
   without ballooning tier-1 runtime. *)

module G = Fuzz.Gen
module O = Fuzz.Oracle
module Dr = Fuzz.Driver
module D = Lint.Diagnostic

let sampled_configs =
  (* A spread of lattice points: the two named anchors plus the first
     designs of two campaign seeds. *)
  [ G.minimal; G.default ]
  @ List.init 4 (fun i -> G.config_for ~seed:42 i)
  @ List.init 2 (fun i -> G.config_for ~seed:7 i)

let lint_errors cfg =
  let r = Lint.Driver.run_design (G.build cfg) in
  List.filter (fun (d : D.t) -> d.D.severity = D.Error) r.D.diags

let test_config_for_stable () =
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "config_for 42 %d stable" i)
      true
      (G.config_for ~seed:42 i = G.config_for ~seed:42 i)
  done;
  let distinct =
    List.init 8 (fun i -> G.describe (G.config_for ~seed:42 i))
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "campaign draws distinct configs" true (distinct >= 4)

let test_generator_determinism () =
  List.iter
    (fun cfg ->
      let d1 = Hdl.Netlist.digest (G.build cfg).Designs.Meta.nl in
      let d2 = Hdl.Netlist.digest (G.build cfg).Designs.Meta.nl in
      Alcotest.(check string) (G.describe cfg ^ ": digest stable") d1 d2)
    sampled_configs

let test_generated_valid_and_lint_clean () =
  List.iter
    (fun cfg ->
      let meta = G.build cfg in
      Hdl.Netlist.validate meta.Designs.Meta.nl;
      Alcotest.(check int)
        (G.describe cfg ^ ": uLint admission (no errors)")
        0
        (List.length (lint_errors cfg)))
    sampled_configs

let test_defects_detected () =
  let expect cfg code =
    let codes = List.map (fun (d : D.t) -> d.D.code) (lint_errors cfg) in
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s" (G.describe cfg) code)
      true (List.mem code codes)
  in
  List.iter
    (fun base ->
      expect { base with G.defect = Some G.Defect_label_idle } "L104";
      expect { base with G.defect = Some G.Defect_pc_width } "L102")
    [ G.minimal; G.default ]

let test_shrink_lattice () =
  Alcotest.(check int)
    "minimal has no shrink steps" 0
    (List.length (G.shrink_steps G.minimal));
  (* Every step preserves the defect and stays buildable + well-formed. *)
  let cfg = { G.default with G.defect = Some G.Defect_label_idle } in
  let steps = G.shrink_steps cfg in
  Alcotest.(check bool) "default has shrink steps" true (steps <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "shrink preserves defect" true
        (c.G.defect = Some G.Defect_label_idle);
      Hdl.Netlist.validate (G.build c).Designs.Meta.nl)
    steps;
  (* Greedy descent terminates at the lattice bottom on a lint-class
     failure (the lint oracle fires on every defect-injected config, so
     every reduction is accepted down to minimal-plus-defect). *)
  let shrunk, steps = Dr.shrink O.O_lint cfg in
  Alcotest.(check bool) "descent accepted steps" true (steps > 0);
  Alcotest.(check bool) "descent reaches lattice minimum" true
    ({ shrunk with G.defect = None } = G.minimal)

let test_reproducer_format () =
  Alcotest.(check string)
    "defaults omitted"
    "synthlc fuzz --seed 42 --only 3"
    (Dr.reproducer ~seed:42 ~depth:Dr.default_depth
       ~episodes:Dr.default_episodes ~defect:None 3);
  Alcotest.(check string)
    "defect and overrides spelled out"
    "synthlc fuzz --seed 7 --only 0 --inject-defect pc-width --depth 4 --episodes 2"
    (Dr.reproducer ~seed:7 ~depth:4 ~episodes:2
       ~defect:(Some G.Defect_pc_width) 0)

(* qcheck shrink-soundness: an arbitrary defect-injected lattice point
   fails the lint oracle, and the shrunk config reproduces that same
   failure class.  Lint-class failures stop the battery before any
   engine run, so each case stays cheap. *)
let arb_defective_config =
  QCheck.make
    ~print:(fun (s, d) ->
      G.describe { (G.sample (Random.State.make [| s |])) with G.defect = Some d })
    QCheck.Gen.(
      pair (int_bound 10_000)
        (oneofl [ G.Defect_label_idle; G.Defect_pc_width ]))

let prop_shrink_sound (s, d) =
  let cfg = { (G.sample (Random.State.make [| s |])) with G.defect = Some d } in
  let outcome = O.run cfg in
  match O.failure outcome with
  | Some (O.O_lint, _) ->
    let shrunk, _steps = Dr.shrink O.O_lint cfg in
    O.fails_like O.O_lint shrunk && shrunk.G.defect = Some d
  | _ -> false

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:6 ~name:"shrunk config reproduces failure class"
        arb_defective_config prop_shrink_sound;
    ]

(* Campaign-level contract on the cheap failing path: exit code 1, the
   failure row carries a shrunk config and a replayable reproducer, and
   the corpus JSON advertises the schema. *)
let test_campaign_defect_path () =
  let s =
    Dr.campaign ~seed:42 ~count:1 ~defect:(Some G.Defect_label_idle) ()
  in
  Alcotest.(check int) "divergence exit code" 1 (Dr.exit_code s);
  match s.Dr.failures with
  | [ f ] ->
    Alcotest.(check bool) "failure is lint-class" true (f.Dr.fr_oracle = O.O_lint);
    Alcotest.(check string)
      "reproducer line"
      "synthlc fuzz --seed 42 --only 0 --inject-defect label-idle"
      f.Dr.fr_reproducer;
    Alcotest.(check bool) "shrunk to lattice minimum" true
      ({ f.Dr.fr_shrunk with G.defect = None } = G.minimal);
    let json = Dr.summary_to_json s in
    let has sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "corpus schema tag" true
      (has {|"schema":"synthlc-fuzz-corpus/1"|});
    Alcotest.(check bool) "corpus failure count" true (has {|"failures_count":1|})
  | l -> Alcotest.failf "expected one failure row, got %d" (List.length l)

(* One engine-level battery: the minimal config through every oracle
   (validate/absint/lint/determinism/roundtrip/jobs/cache-warm/
   prune-audit/sweep/grid), every verdict Pass. *)
let test_minimal_battery_green () =
  let outcome = O.run ~depth:5 ~episodes:2 G.minimal in
  List.iter
    (fun (orc, v) ->
      Alcotest.(check bool)
        ("oracle " ^ O.oracle_name orc ^ " passes")
        true (v = O.Pass))
    outcome.O.verdicts;
  Alcotest.(check bool) "battery produced a report digest" true
    (outcome.O.report_digest <> None)

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "config_for is stable per (seed, index)" `Quick
        test_config_for_stable;
      Alcotest.test_case "same seed+config => identical netlist digest" `Quick
        test_generator_determinism;
      Alcotest.test_case "generated designs validate and pass uLint" `Quick
        test_generated_valid_and_lint_clean;
      Alcotest.test_case "seeded defects trip the lint oracle" `Quick
        test_defects_detected;
      Alcotest.test_case "shrink steps descend the lattice soundly" `Quick
        test_shrink_lattice;
      Alcotest.test_case "reproducer one-liner format" `Quick
        test_reproducer_format;
      Alcotest.test_case "defect campaign: exit 1, shrunk row, corpus JSON"
        `Quick test_campaign_defect_path;
      Alcotest.test_case "minimal config passes the full oracle battery"
        `Slow test_minimal_battery_green;
    ]
    @ qcheck_tests )
