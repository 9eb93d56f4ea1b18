(* µLint tests: the built-in designs are clean, seeded defects trigger the
   documented diagnostic codes, JSON rendering and exit codes behave, the
   static reachability pre-pass prunes the CVA6 scoreboard's dead states,
   and synthesis produces a bit-identical report digest with the static
   prune on and off. *)

module N = Hdl.Netlist
module Meta = Designs.Meta
module D = Lint.Diagnostic

let bv w i = Bitvec.of_int ~width:w i

let build_design = function
  | "cva6_lite" -> Designs.Core.build Designs.Core.baseline
  | "cva6_mul" -> Designs.Core.build Designs.Core.cva6_mul
  | "cva6_op" -> Designs.Core.build Designs.Core.cva6_op
  | "cva6_fixed" -> Designs.Core.build Designs.Core.all_fixed
  | "ibex_lite" -> Designs.Ibex.build ()
  | "cva6_cache" -> Designs.Cache.build ()
  | d -> failwith ("unknown design " ^ d)

let all_designs =
  [ "cva6_lite"; "cva6_mul"; "cva6_op"; "cva6_fixed"; "ibex_lite"; "cva6_cache" ]

let test_builtin_designs_clean () =
  List.iter
    (fun dname ->
      let r = Lint.Driver.run_design (build_design dname) in
      let errors, warnings, _infos = D.counts r.D.diags in
      Alcotest.(check int) (dname ^ ": no errors") 0 errors;
      Alcotest.(check int) (dname ^ ": no warnings") 0 warnings)
    all_designs;
  let reports = List.map (fun d -> Lint.Driver.run_design (build_design d)) all_designs in
  Alcotest.(check int) "clean designs exit 0" 0 (D.exit_code reports)

(* A deliberately broken design exercising one finding per annotation code
   (plus the structural unnamed-annotated warning). *)
let broken_meta () =
  let nl = N.create "broken" in
  let ifr_valid = N.input nl "ifr_valid" 1 in
  (* L102: the IFR word must be Isa.width bits. *)
  let ifr_word = N.input nl "ifr_word" 8 in
  let commit = N.input nl "commit" 1 in
  let commit_pc = N.input nl "commit_pc" 6 in
  (* L006: an annotated signal without a name. *)
  let flush = N.not_ nl commit in
  let op_valid = N.input nl "op_valid" 1 in
  let op_pc = N.input nl "op_pc" 6 in
  let pcr = N.reg nl ~name:"pcr" ~init:(N.Init_value (Bitvec.zero 6)) ~width:6 () in
  N.connect_reg nl pcr pcr;
  (* L103: a µFSM state variable that is a wire, not a register. *)
  let svar = N.wire nl ~name:"state" 2 in
  N.connect_wire nl svar (N.const nl (bv 2 0));
  (* L105: an operand register that is an input. *)
  let opreg = N.input nl "rs1_val" 8 in
  {
    Meta.design_name = "broken";
    nl;
    ifrs =
      [
        (* L101: a PC annotation pointing outside the netlist. *)
        { Meta.ifr_valid; ifr_pc = 9999; ifr_word };
      ];
    operand_stage_valid = op_valid;
    operand_stage_pc = op_pc;
    commit;
    commit_pc;
    flush;
    ufsms =
      [
        {
          Meta.ufsm_name = "u";
          pcr;
          vars = [ svar ];
          (* L106: no idle state declared. *)
          idle_states = [];
          (* L104: the same valuation labelled twice. *)
          state_labels = [ (bv 2 1, "A"); (bv 2 1, "B") ];
        };
      ];
    operand_regs = [ ("rs1", opreg) ];
    arf = [];
    amem = [];
    extra_assumes = [];
  }

let test_seeded_defects () =
  let r = Lint.Driver.run_design (broken_meta ()) in
  let has code = List.exists (fun d -> d.D.code = code) r.D.diags in
  List.iter
    (fun code ->
      Alcotest.(check bool) ("finds " ^ code) true (has code))
    [ "L101"; "L102"; "L103"; "L104"; "L105"; "L106"; "L006" ];
  Alcotest.(check int) "errors exit 2" 2 (D.exit_code [ r ])

let test_structural_defects () =
  let meta = broken_meta () in
  let nl = meta.Meta.nl in
  (* L001: a combinational cycle. *)
  let loop = N.wire nl ~name:"loop" 1 in
  N.connect_wire nl loop (N.not_ nl loop);
  (* L002: an unconnected wire. *)
  let _dangling = N.wire nl ~name:"dangling" 4 in
  (* L004: dead logic reaching no register, named, or annotated signal. *)
  let dead = N.op2 nl N.Add meta.Meta.commit_pc meta.Meta.commit_pc in
  (* L005: foldable constant logic kept live through a named wire. *)
  let folded = N.wire nl ~name:"folded" 4 in
  N.connect_wire nl folded (N.op2 nl N.Add (N.const nl (bv 4 1)) (N.const nl (bv 4 2)));
  let diags = Lint.Structural.run meta in
  let find code = List.filter (fun d -> d.D.code = code) diags in
  Alcotest.(check bool) "L001 cycle" true
    (List.exists
       (fun d -> d.D.signal = Some loop)
       (find "L001"));
  Alcotest.(check bool) "L002 unconnected wire" true
    (List.exists (fun d -> d.D.signal_name = Some "dangling") (find "L002"));
  Alcotest.(check bool) "L004 dead operator" true
    (List.exists (fun d -> d.D.signal = Some dead) (find "L004"));
  Alcotest.(check bool) "L005 foldable" true (find "L005" <> []);
  (* Warnings alone exit 1: strip the broken annotations down to the
     structural warnings by checking severity classification instead. *)
  Alcotest.(check bool) "L004 is a warning" true
    (List.for_all (fun d -> d.D.severity = D.Warning) (find "L004"));
  Alcotest.(check bool) "L005 is an info" true
    (List.for_all (fun d -> d.D.severity = D.Info) (find "L005"))

let test_exit_codes_and_json () =
  (* Warning-only report exits 1; infos never affect the exit code. *)
  let warn = D.make ~code:"L004" ~severity:D.Warning "dead" in
  let info = D.make ~code:"L005" ~severity:D.Info "foldable" in
  Alcotest.(check int) "info only exits 0" 0
    (D.exit_code [ { D.design = "d"; diags = [ info ] } ]);
  Alcotest.(check int) "warning exits 1" 1
    (D.exit_code [ { D.design = "d"; diags = [ warn; info ] } ]);
  let r = Lint.Driver.run_design (broken_meta ()) in
  let json = D.to_json [ r ] in
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "json names the design" true (contains "\"broken\"");
  Alcotest.(check bool) "json carries codes" true (contains "\"L104\"");
  Alcotest.(check bool) "json counts errors" true (contains "\"errors\"")

(* A design seeding one finding per taint-flow code: a dead operand (T301),
   a blocker no taint reaches (T302), persistent state outside the cone
   (T303), an unconnected inject target (T304), an enabled register
   (T305). *)
let taint_broken_meta () =
  let nl = N.create "tbroken" in
  let ifr_valid = N.input nl "ifr_valid" 1 in
  let ifr_word = N.input nl "ifr_word" Isa.width in
  let ifr_pc = N.input nl "ifr_pc" 6 in
  let commit = N.input nl "commit" 1 in
  let commit_pc = N.input nl "commit_pc" 6 in
  let op_valid = N.input nl "op_valid" 1 in
  let op_pc = N.input nl "op_pc" 6 in
  let pcr = N.reg nl ~name:"pcr" ~init:(N.Init_value (Bitvec.zero 6)) ~width:6 () in
  N.connect_reg nl pcr pcr;
  let svar = N.reg nl ~name:"state" ~init:(N.Init_value (bv 2 0)) ~width:2 () in
  N.connect_reg nl svar svar;
  (* T301: a connected operand register that feeds nothing. *)
  let rs1 = N.reg nl ~name:"rs1_val" ~init:(N.Init_value (Bitvec.zero 8)) ~width:8 () in
  N.connect_reg nl rs1 (N.input nl "rs1_in" 8);
  (* T304: an operand register with no next-state. *)
  let rs2 = N.reg nl ~name:"rs2_val" ~init:(N.Init_value (Bitvec.zero 8)) ~width:8 () in
  (* T302: a blocked register only a constant drives. *)
  let arf0 = N.reg nl ~name:"arf0" ~init:(N.Init_value (Bitvec.zero 8)) ~width:8 () in
  N.connect_reg nl arf0 (N.const nl (Bitvec.zero 8));
  (* T303: symbolic-init persistent state outside every operand cone. *)
  let tagmem = N.reg nl ~name:"tagmem" ~init:N.Init_symbolic ~width:8 () in
  N.connect_reg nl tagmem tagmem;
  (* T305: an enabled register. *)
  let held =
    N.reg nl ~enable:op_valid ~name:"held" ~init:(N.Init_value (Bitvec.zero 4))
      ~width:4 ()
  in
  N.connect_reg nl held (N.input nl "held_in" 4);
  {
    Meta.design_name = "tbroken";
    nl;
    ifrs = [ { Meta.ifr_valid; ifr_pc; ifr_word } ];
    operand_stage_valid = op_valid;
    operand_stage_pc = op_pc;
    commit;
    commit_pc;
    flush = commit;
    ufsms =
      [
        {
          Meta.ufsm_name = "u";
          pcr;
          vars = [ svar ];
          idle_states = [ bv 2 0 ];
          state_labels = [ (bv 2 1, "A") ];
        };
      ];
    operand_regs = [ ("rs1", rs1); ("rs2", rs2) ];
    arf = [ arf0 ];
    amem = [];
    extra_assumes = [];
  }

let test_taintflow_defects () =
  let diags = Lint.Taintflow.run (taint_broken_meta ()) in
  let find code = List.filter (fun d -> d.D.code = code) diags in
  List.iter
    (fun code ->
      Alcotest.(check bool) ("finds " ^ code) true (find code <> []))
    [ "T301"; "T302"; "T303"; "T304"; "T305" ];
  Alcotest.(check bool) "T304 names rs2" true
    (List.exists (fun d -> d.D.signal_name = Some "rs2_val") (find "T304"));
  Alcotest.(check bool) "T305 names held" true
    (List.exists (fun d -> d.D.signal_name = Some "held") (find "T305"));
  Alcotest.(check bool) "T304 is an error" true
    (List.for_all (fun d -> d.D.severity = D.Error) (find "T304"));
  Alcotest.(check bool) "T301/T302/T303 are not errors" true
    (List.for_all
       (fun d -> d.D.severity <> D.Error)
       (find "T301" @ find "T302" @ find "T303"));
  (* The driver surfaces the taint-flow pass. *)
  let r = Lint.Driver.run_design (taint_broken_meta ()) in
  Alcotest.(check bool) "driver runs taintflow" true
    (List.exists (fun d -> d.D.code = "T304") r.D.diags)

(* The CVA6-lite scoreboard µFSMs are 3-bit with five used states and the
   LDU is 2-bit with three: the abstraction must prove exactly the 13
   unlabelled residues dead — the covers the synthesis pre-pass prunes. *)
let test_cva6_static_dead () =
  let dead =
    Lint.Reach.statically_dead_unlabelled
      (Designs.Core.build Designs.Core.baseline)
  in
  Alcotest.(check int) "13 statically-dead unlabelled states" 13
    (List.length dead);
  Alcotest.(check bool) "covers every scoreboard entry" true
    (List.for_all
       (fun i ->
         List.exists (fun (u, _) -> u = Printf.sprintf "scb%d" i) dead)
       [ 0; 1; 2; 3 ])

(* [Prune.discharge] with a stub checker: [`On] trusts the pre-pass and
   never calls it; [`Audit] re-checks every entry in order and fails on the
   first reachable one, naming the abstraction and the cover. *)
let test_prune_discharge () =
  let dead =
    [ ("fsm", "PL a", 1); ("fsm", "PL b", 2); ("kb", "state c", 3); ("kb", "PL d", 4) ]
  in
  let calls = ref [] in
  let check verdicts lits =
    calls := lits :: !calls;
    List.assoc lits verdicts
  in
  let unreachable = Mc.Checker.Unreachable (Mc.Checker.Bounded 1) in
  (* A real witness for the stub's [Reachable] verdict: cover an input. *)
  let cex =
    let nl = Hdl.Netlist.create "one_input" in
    let module D = Hdl.Dsl.Make (struct
      let nl = nl
    end) in
    let go = D.input "go" 1 in
    Mc.Checker.check_cover (Mc.Checker.create ~assumes:[] nl) [ (go, true) ]
  in
  Alcotest.(check int) "`On counts every dead cover" 4
    (Mupath.Prune.discharge `On ~check:(fun _ -> Alcotest.fail "`On called check") dead);
  let passing =
    [ (1, unreachable); (2, Mc.Checker.Undetermined); (3, unreachable); (4, unreachable) ]
  in
  Alcotest.(check int) "`Audit discharges nothing" 0
    (Mupath.Prune.discharge `Audit ~check:(check passing) dead);
  Alcotest.(check (list int)) "`Audit checks each cover once, in order" [ 1; 2; 3; 4 ]
    (List.rev !calls);
  calls := [];
  let reachable_c = [ (1, unreachable); (2, unreachable); (3, cex); (4, cex) ] in
  Alcotest.check_raises "first reachable cover fails the audit"
    (Failure "Prune: kb abstraction unsound: state c is reachable") (fun () ->
      ignore (Mupath.Prune.discharge `Audit ~check:(check reachable_c) dead));
  Alcotest.(check (list int)) "audit stops at the first reachable cover" [ 1; 2; 3 ]
    (List.rev !calls)

(* Synthesis end-to-end: static pruning must not change the report digest,
   and the pruned covers must vanish from the duv_pl property count. *)
let run_ibex_engine ~prune () =
  let design () = Designs.Ibex.build () in
  let stimulus ~pins ~rotate meta = Designs.Stimulus.ibex ~pins ~rotate meta in
  Synthlc.Engine.run ~config:Test_parallel.light_config ~prune ~stimulus
    ~design ~jobs:1
    ~instructions:
      [ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD; Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV ]
    ~transmitters:[ Isa.DIV; Isa.ADD ]
    ~kinds:[ Synthlc.Types.Intrinsic ]
    ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()

let duv_stage (r : Synthlc.Engine.report) =
  List.map
    (fun (t : Synthlc.Engine.transponder_report) ->
      List.assoc "duv_pl" t.Synthlc.Engine.synth.Mupath.Synth.stage_stats)
    r.Synthlc.Engine.transponders

let test_static_prune_digest_identical () =
  let on = run_ibex_engine ~prune:`On () in
  let audit = run_ibex_engine ~prune:`Audit () in
  Alcotest.(check string) "digest identical across prune modes"
    (Synthlc.Engine.report_digest audit)
    (Synthlc.Engine.report_digest on);
  let pruned r =
    List.fold_left
      (fun a (s : Mupath.Synth.stage_stats) ->
        a + s.Mupath.Synth.pruned_static + s.Mupath.Synth.pruned_absint)
      0 (duv_stage r)
  in
  Alcotest.(check bool) "pre-pass prunes covers" true (pruned on > 0);
  Alcotest.(check int) "audit mode reports no prunes" 0 (pruned audit);
  (* Every statically-discharged cover reappears as an audit property. *)
  List.iter2
    (fun (son : Mupath.Synth.stage_stats) (saudit : Mupath.Synth.stage_stats) ->
      Alcotest.(check int) "audit props = pruned covers"
        (son.Mupath.Synth.props + son.Mupath.Synth.pruned_static
       + son.Mupath.Synth.pruned_absint)
        saudit.Mupath.Synth.props)
    (duv_stage on) (duv_stage audit)

let suite =
  ( "lint",
    [
      Alcotest.test_case "built-in designs are clean" `Quick
        test_builtin_designs_clean;
      Alcotest.test_case "seeded annotation defects" `Quick test_seeded_defects;
      Alcotest.test_case "seeded structural defects" `Quick
        test_structural_defects;
      Alcotest.test_case "exit codes and JSON" `Quick test_exit_codes_and_json;
      Alcotest.test_case "seeded taint-flow defects" `Quick
        test_taintflow_defects;
      Alcotest.test_case "cva6 statically-dead states" `Quick
        test_cva6_static_dead;
      Alcotest.test_case "prune discharge on/audit" `Quick test_prune_discharge;
      Alcotest.test_case "static prune digest-identical" `Quick
        test_static_prune_digest_identical;
    ] )
