(* Known-bits abstract interpretation tests: unit transfer rules, the
   qcheck containment differential against lib/sim (every concrete state
   of a 24-cycle simulation lies inside the invariant envelope) on both
   random combinational netlists and full Fuzz.Gen pipeline designs, and
   the known-bits refinements of the fsm-reachability and taint-reach
   analyses. *)

module N = Hdl.Netlist
module A = Hdl.Analysis
module AI = Hdl.Absint

let bv w i = Bitvec.of_int ~width:w i

(* --- unit transfer rules ------------------------------------------------ *)

let fact k v w = { AI.known = bv w k; value = bv w v }

let check_fact msg expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected (k=%s,v=%s) got (k=%s,v=%s)" msg
       (Bitvec.to_hex_string expected.AI.known)
       (Bitvec.to_hex_string expected.AI.value)
       (Bitvec.to_hex_string got.AI.known)
       (Bitvec.to_hex_string got.AI.value))
    true
    (AI.fact_equal expected got)

let test_transfer_rules () =
  (* AND: known-zero operand bits force known-zero output bits. *)
  let nl = N.create "t" in
  let a = N.input nl "a" 8 in
  let b = N.input nl "b" 8 in
  let facts = Hashtbl.create 8 in
  let env s = Hashtbl.find facts s in
  let node_of s = N.node nl s in
  let set s f = Hashtbl.replace facts s f in
  set a (fact 0x0F 0x05 8);
  (* a: low nibble known 0101, high nibble unknown *)
  set b (fact 0xFF 0x33 8);
  (* b: fully known 0x33 *)
  let g = N.op2 nl N.And a b in
  set g (AI.transfer env (node_of g));
  (* high nibble of b is 0x3: bits 6,7 known-0 kill the unknown a bits;
     bits 4,5 stay unknown.  Low nibble fully known: 0x05 & 0x03 = 0x01. *)
  check_fact "and" (fact 0xCF 0x01 8) (env g);
  let g = N.op2 nl N.Or a b in
  set g (AI.transfer env (node_of g));
  (* known-1 bits of b (0x33) shine through the unknown high nibble. *)
  check_fact "or" (fact 0x3F 0x37 8) (env g);
  let g = N.op2 nl N.Xor a b in
  set g (AI.transfer env (node_of g));
  check_fact "xor" (fact 0x0F 0x06 8) (env g);
  let g = N.op2 nl N.Add a b in
  set g (AI.transfer env (node_of g));
  (* carries ride upward: only the 4 trailing jointly-known bits hold. *)
  check_fact "add" (fact 0x0F 0x08 8) (env g);
  let g = N.op2 nl N.Eq a b in
  set g (AI.transfer env (node_of g));
  (* bit 1: a known 0, b known 1 -> provably unequal. *)
  check_fact "eq disagree" { AI.known = Bitvec.ones 1; value = Bitvec.zero 1 } (env g);
  (* Mux with a known-one select takes the true arm. *)
  let sel = N.input nl "sel" 1 in
  set sel (fact 0x1 0x1 1);
  let g = N.mux nl ~sel ~on_true:a ~on_false:b in
  set g (AI.transfer env (node_of g));
  check_fact "mux known-nonzero sel" (fact 0x0F 0x05 8) (env g);
  (* Unknown select joins the arms where they agree. *)
  set sel (AI.top 1);
  let g2 = N.mux nl ~sel ~on_true:a ~on_false:b in
  set g2 (AI.transfer env (node_of g2));
  (* agreement on jointly-known bits: 0x05 vs 0x33 low nibble -> bits 0,1
     agree (1,0 vs 1,1? 0x5=0101 0x3=0011: bit0 1=1, bit1 0<>1, bit2 1<>0,
     bit3 0=0) -> known = 0x09. *)
  check_fact "mux join" (fact 0x09 0x01 8) (env g2);
  (* Ult via intervals: a in [0x05,0xF5], b = 0x33 -> undecided; but
     a | high-unknown vs small known bound decides when ranges separate. *)
  let c = N.input nl "c" 8 in
  set c (fact 0xF0 0x40 8);
  (* c in [0x40,0x4F] *)
  let g3 = N.op2 nl N.Ult b c in
  set g3 (AI.transfer env (node_of g3));
  (* 0x33 < [0x40,0x4F] always *)
  check_fact "ult true" (AI.exact (Bitvec.of_bool true)) (env g3);
  let g4 = N.op2 nl N.Ult c b in
  set g4 (AI.transfer env (node_of g4));
  check_fact "ult false" (AI.exact (Bitvec.of_bool false)) (env g4);
  (* ReduceOr of a value with a known-1 bit is known true. *)
  let g5 = N.reduce_or nl b in
  set g5 (AI.transfer env (node_of g5));
  check_fact "reduce_or" (AI.exact (Bitvec.of_bool true)) (env g5)

let test_fixpoint_stuck_register () =
  (* A register fed by itself AND-ed with a constant mask stays inside the
     mask; bits outside it are proven stuck at 0 even though the register
     also absorbs an input. *)
  let nl = N.create "stuck" in
  let d = N.input nl "d" 8 in
  let r = N.reg nl ~name:"r" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl r (N.op2 nl N.And d (N.const nl (bv 8 0x0F)));
  let kb = AI.known_bits nl in
  let known, value = kb.(r) in
  Alcotest.(check int) "high nibble stuck at 0" 0xF0
    (Bitvec.to_int (Bitvec.logand known (bv 8 0xF0)));
  Alcotest.(check bool) "stuck bits are zero" true
    (Bitvec.is_zero (Bitvec.logand value (bv 8 0xF0)));
  Alcotest.(check bool) "low nibble unknown" true
    (Bitvec.is_zero (Bitvec.logand known (bv 8 0x0F)))

let test_enable_frozen_register () =
  (* An enable proven stuck at 0 freezes the register at its reset value. *)
  let nl = N.create "frozen" in
  let d = N.input nl "d" 4 in
  let en = N.op2 nl N.And (N.input nl "e" 1) (N.const nl (bv 1 0)) in
  let r = N.reg nl ~enable:en ~name:"r" ~init:(N.Init_value (bv 4 0x9)) ~width:4 () in
  N.connect_reg nl r d;
  let kb = AI.known_bits nl in
  Alcotest.(check (option int)) "frozen at reset" (Some 0x9)
    (Option.map Bitvec.to_int (AI.stuck_value kb r))

(* --- qcheck containment: known-bits >= every concrete state ------------ *)

let check_containment nl ~seed ~cycles =
  let kb = AI.known_bits nl in
  let sim = Sim.create ~seed nl in
  let nn = N.num_nodes nl in
  let ok = ref true in
  for cycle = 0 to cycles - 1 do
    Sim.poke_random_inputs sim;
    Sim.eval sim;
    for s = 0 to nn - 1 do
      let known, value = kb.(s) in
      let concrete = Sim.peek sim s in
      if not (Bitvec.equal (Bitvec.logand concrete known) value) then begin
        ok := false;
        QCheck.Test.fail_reportf
          "seed %d cycle %d: signal %d value %s escapes known bits (k=%s,v=%s)"
          seed cycle s
          (Bitvec.to_hex_string concrete)
          (Bitvec.to_hex_string known)
          (Bitvec.to_hex_string value)
      end
    done;
    Sim.step sim
  done;
  !ok

(* Random combinational netlists over two registers (the taint-test
   generator's shape): exercises every op kind including enables. *)
let random_netlist seed =
  let rng = Random.State.make [| seed |] in
  let nl = N.create "rand" in
  let data = N.input nl "data" 8 in
  let other = N.input nl "other" 8 in
  let src = N.reg nl ~name:"src" ~init:(N.Init_value (bv 8 (Random.State.int rng 256))) ~width:8 () in
  N.connect_reg nl src (N.op2 nl N.And data (N.const nl (bv 8 (Random.State.int rng 256))));
  let const () = N.const nl (bv 8 (Random.State.int rng 256)) in
  let rec gen depth =
    if depth = 0 then
      match Random.State.int rng 3 with
      | 0 -> src
      | 1 -> other
      | _ -> const ()
    else
      let a = gen (depth - 1) and b = gen (depth - 1) in
      match Random.State.int rng 12 with
      | 0 -> N.op2 nl N.And a b
      | 1 -> N.op2 nl N.Or a b
      | 2 -> N.op2 nl N.Xor a b
      | 3 -> N.op2 nl N.Add a b
      | 4 -> N.op2 nl N.Sub a b
      | 5 -> N.not_ nl a
      | 6 ->
        let sel = N.extract nl ~hi:0 ~lo:0 b in
        N.mux nl ~sel ~on_true:a ~on_false:b
      | 7 -> N.concat nl [ N.extract nl ~hi:3 ~lo:0 a; N.extract nl ~hi:7 ~lo:4 b ]
      | 8 ->
        let c = N.op2 nl N.Ult a b in
        N.mux nl ~sel:c ~on_true:a ~on_false:(N.op2 nl N.Sub a b)
      | 9 ->
        let c = N.op2 nl N.Slt a b in
        N.concat nl [ N.extract nl ~hi:6 ~lo:0 a; c ]
      | 10 -> N.op2 nl N.Mul a (const ())
      | _ ->
        let c = N.op2 nl N.Eq a b in
        N.mux nl ~sel:c ~on_true:a ~on_false:b
  in
  let f = gen (1 + Random.State.int rng 3) in
  let dst = N.reg nl ~name:"dst" ~init:N.Init_symbolic ~width:8 () in
  N.connect_reg nl dst f;
  let held =
    N.reg nl ~enable:(N.extract nl ~hi:0 ~lo:0 f) ~name:"held"
      ~init:(N.Init_value (bv 4 (Random.State.int rng 16)))
      ~width:4 ()
  in
  N.connect_reg nl held (N.extract nl ~hi:5 ~lo:2 f);
  nl

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let qcheck_containment_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:"known bits contain 24-cycle sim (random comb)" arb_seed
       (fun seed -> check_containment (random_netlist seed) ~seed ~cycles:24))

let qcheck_containment_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10
       ~name:"known bits contain 24-cycle sim (Fuzz.Gen pipelines)" arb_seed
       (fun seed ->
         let cfg = Fuzz.Gen.config_for ~seed 0 in
         let meta = Fuzz.Gen.build cfg in
         check_containment meta.Designs.Meta.nl ~seed ~cycles:24))

let test_builtin_designs_contained () =
  List.iter
    (fun build ->
      let meta = build () in
      Alcotest.(check bool)
        (N.name meta.Designs.Meta.nl ^ ": containment")
        true
        (check_containment meta.Designs.Meta.nl ~seed:7 ~cycles:24))
    [
      (fun () -> Designs.Core.build Designs.Core.baseline);
      (fun () -> Designs.Ibex.build ());
      (fun () -> Designs.Cache.build ());
    ]

(* --- known-bits refinement of the fsm/taint analyses -------------------- *)

let test_fsm_reachable_refined () =
  (* A 2-bit state register whose next state concatenates a stuck-at-0 bit:
     unrefined analysis sees the foreign feeding register as Top only if it
     routes through arithmetic; here we force Top via an Add, then let
     known-bits recover the stuck upper bit. *)
  let nl = N.create "fsmkb" in
  let d = N.input nl "d" 2 in
  (* feeder: (d & 01) + 0 — the Add widens the value-set to Top without
     known-bits, but bit 1 is provably 0. *)
  let feeder =
    N.op2 nl N.Add
      (N.op2 nl N.And d (N.const nl (bv 2 0x1)))
      (N.const nl (bv 2 0))
  in
  let st = N.reg nl ~name:"st" ~init:(N.Init_value (bv 2 0)) ~width:2 () in
  N.connect_reg nl st feeder;
  let base = A.fsm_reachable nl ~vars:[ st ] in
  let refined = A.fsm_reachable ~known:(AI.known_bits nl) nl ~vars:[ st ] in
  (* Unrefined: Add -> Top -> all four states.  Refined: bit 1 stuck. *)
  Alcotest.(check int) "unrefined reaches 4" 4
    (List.length (Option.get base));
  Alcotest.(check int) "refined reaches 2" 2
    (List.length (Option.get refined));
  List.iter
    (fun v ->
      Alcotest.(check bool) "refined states have bit1 clear" false
        (Bitvec.bit v 1))
    (Option.get refined)

let test_taint_reach_refined () =
  (* src & gate where gate's low nibble is stuck at 0 through a register:
     the constant map cannot see it (gate is a register), known-bits can. *)
  let nl = N.create "taintkb" in
  let d = N.input nl "d" 8 in
  let src = N.reg nl ~name:"src" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl src d;
  let gate = N.reg nl ~name:"gate" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl gate (N.op2 nl N.And (N.input nl "g" 8) (N.const nl (bv 8 0xF0)));
  let dst = N.reg nl ~name:"dst" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl dst (N.op2 nl N.And src gate);
  let base = (A.taint_reach ~sources:[ src ] nl).(dst) in
  let refined =
    (A.taint_reach ~known:(AI.known_bits nl) ~sources:[ src ] nl).(dst)
  in
  Alcotest.(check int) "unrefined taints whole word" 0xFF (Bitvec.to_int base);
  Alcotest.(check int) "refined confines taint to high nibble" 0xF0
    (Bitvec.to_int refined)

(* --- end-to-end: absint prune on/audit digest identity ------------------ *)

(* The gated demo DUV (see Designs.Gated): its "gate" µFSM reaches all four
   states under the plain FSM abstraction but only two once known-bits
   proves the gating register stuck at 0 — so exactly two covers are
   discharged by the absint prune, beyond the one the base prune gets. *)
let gated_config =
  {
    Mc.Checker.default_config with
    Mc.Checker.bmc_depth = 10;
    sim_episodes = 8;
    sim_cycles = 16;
  }

let run_gated prune =
  let design () = Designs.Gated.build () in
  Synthlc.Engine.run ~config:gated_config ~prune ~design ~jobs:1
    ~instructions:[ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD ]
    ~transmitters:[ Isa.ADD ]
    ~kinds:[ Synthlc.Types.Intrinsic ]
    ~revisit_count_labels:[] ~iuv_pc:Designs.Gated.iuv_pc ()

let synth_of r =
  match r.Synthlc.Engine.transponders with
  | [ t ] -> t.Synthlc.Engine.synth
  | _ -> Alcotest.fail "expected one transponder"

let test_absint_prune_digest_identical () =
  let on = run_gated `On in
  let audit = run_gated `Audit in
  let d = Synthlc.Engine.report_digest in
  Alcotest.(check string) "digest on = audit" (d audit) (d on);
  let duv_stats r = List.assoc "duv_pl" (synth_of r).Mupath.Synth.stage_stats in
  Alcotest.(check int) "on mode discharges two absint covers" 2
    (duv_stats on).Mupath.Synth.pruned_absint;
  Alcotest.(check int) "audit mode discharges nothing" 0
    (duv_stats audit).Mupath.Synth.pruned_absint;
  (* Every discharged cover reappears as an audit property. *)
  Alcotest.(check int) "audit props = pruned covers"
    ((duv_stats on).Mupath.Synth.props + (duv_stats on).Mupath.Synth.pruned_static
   + (duv_stats on).Mupath.Synth.pruned_absint)
    (duv_stats audit).Mupath.Synth.props;
  (* The base prune is orthogonal and still fires (state st=3). *)
  Alcotest.(check int) "base static prune unaffected" 1
    (duv_stats on).Mupath.Synth.pruned_static;
  (* The dead states land in pruned_duv_states in both modes — they are
     part of the report digest, so mode-independence is load-bearing. *)
  let pruned r = (synth_of r).Mupath.Synth.pruned_duv_states in
  Alcotest.(check (list string)) "pruned states mode-independent"
    (pruned on) (pruned audit);
  Alcotest.(check bool) "gate µFSM states are among the pruned" true
    (List.exists (fun s -> String.length s >= 4 && String.sub s 0 4 = "gate")
       (pruned on))

(* Known-bits SAT substitution (Checker.known_bits) must not change any
   verdict: same workload, flag on vs off, bit-identical report. *)
let test_known_bits_encoding_digest_identical () =
  let run kb =
    let design () = Designs.Gated.build () in
    let config = { gated_config with Mc.Checker.known_bits = kb } in
    Synthlc.Engine.run ~config ~design ~jobs:1
      ~instructions:[ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD ]
      ~transmitters:[ Isa.ADD ]
      ~kinds:[ Synthlc.Types.Intrinsic ]
      ~revisit_count_labels:[] ~iuv_pc:Designs.Gated.iuv_pc ()
  in
  let with_kb = run true and without_kb = run false in
  Alcotest.(check string) "digest identical across known_bits on/off"
    (Synthlc.Engine.report_digest without_kb)
    (Synthlc.Engine.report_digest with_kb)

(* On/audit identity on a built-in core (mirroring test_taint's flow-prune
   test): ibex_lite has no register-level known bits, so the refinement
   must discharge nothing — and, exactly because the dead/live partition
   is computed identically in both modes, the digest must still match. *)
let test_absint_noop_on_ibex () =
  let run prune =
    let design () = Designs.Ibex.build () in
    let stimulus ~pins ~rotate meta = Designs.Stimulus.ibex ~pins ~rotate meta in
    Synthlc.Engine.run ~config:Test_parallel.light_config ~prune ~stimulus
      ~design ~jobs:1
      ~instructions:[ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV ]
      ~transmitters:[ Isa.DIV ]
      ~kinds:[ Synthlc.Types.Intrinsic ]
      ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
  in
  let on = run `On in
  let audit = run `Audit in
  let d = Synthlc.Engine.report_digest in
  Alcotest.(check string) "digest on = audit" (d audit) (d on);
  let absint_pruned (r : Synthlc.Engine.report) =
    List.fold_left
      (fun acc (t : Synthlc.Engine.transponder_report) ->
        List.fold_left
          (fun acc (_, (s : Mupath.Synth.stage_stats)) ->
            acc + s.Mupath.Synth.pruned_absint)
          acc t.Synthlc.Engine.synth.Mupath.Synth.stage_stats
        + t.Synthlc.Engine.flow_pruned_absint)
      0 r.Synthlc.Engine.transponders
  in
  Alcotest.(check int) "nothing to discharge on ibex_lite" 0
    (absint_pruned on)

let suite =
  ( "absint",
    [
      Alcotest.test_case "transfer rules" `Quick test_transfer_rules;
      Alcotest.test_case "fixpoint stuck register" `Quick
        test_fixpoint_stuck_register;
      Alcotest.test_case "enable-frozen register" `Quick
        test_enable_frozen_register;
      qcheck_containment_random;
      qcheck_containment_fuzz;
      Alcotest.test_case "built-in designs contained" `Quick
        test_builtin_designs_contained;
      Alcotest.test_case "fsm_reachable known-bits refinement" `Quick
        test_fsm_reachable_refined;
      Alcotest.test_case "taint_reach known-bits refinement" `Quick
        test_taint_reach_refined;
      Alcotest.test_case "absint prune digest-identical" `Quick
        test_absint_prune_digest_identical;
      Alcotest.test_case "known-bits encoding digest-identical" `Quick
        test_known_bits_encoding_digest_identical;
      Alcotest.test_case "absint no-op digest-identical on ibex" `Slow
        test_absint_noop_on_ibex;
    ] )
