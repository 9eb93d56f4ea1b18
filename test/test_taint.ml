(* Static taint-flow tests: unit rules of Hdl.Analysis.taint_reach (chain
   reach, blocked kill, value-aware precision), the qcheck soundness
   property (the static mask contains every bit the Ift-instrumented
   design can dynamically taint, in the matching precision mode), the
   imprecise-IFT cache namespace and report identity on the toy DUV, and
   the static leakage grid on ibex_lite.  The digest identity of SynthLC's
   static flow pruning across its modes is pinned in the [pins] suite. *)

module N = Hdl.Netlist
module A = Hdl.Analysis

let bv w i = Bitvec.of_int ~width:w i

let mk_src nl =
  let src = N.reg nl ~name:"src" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl src (N.input nl "d" 8);
  src

let mk_dst nl f =
  let dst = N.reg nl ~name:"dst" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl dst f;
  dst

let test_chain_and_kill () =
  (* src -> xor -> mid -> xor -> dst, with mid optionally blocked. *)
  let build blocked_mid =
    let nl = N.create "chain" in
    let src = mk_src nl in
    let other = N.input nl "o" 8 in
    let mid = N.reg nl ~name:"mid" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
    N.connect_reg nl mid (N.op2 nl N.Xor src other);
    let dst = mk_dst nl (N.op2 nl N.Xor mid other) in
    let blocked = if blocked_mid then [ mid ] else [] in
    (A.taint_reach ~blocked ~sources:[ src ] nl, src, mid, dst)
  in
  let masks, src, mid, dst = build false in
  Alcotest.(check bool) "src seeded" true (A.taint_reaches masks src);
  Alcotest.(check bool) "mid reached" true (A.taint_reaches masks mid);
  Alcotest.(check bool) "dst reached through mid" true (A.taint_reaches masks dst);
  let masks, _, mid, dst = build true in
  Alcotest.(check bool) "blocked mid killed" false (A.taint_reaches masks mid);
  Alcotest.(check bool) "kill cuts the only path" false (A.taint_reaches masks dst)

let test_blocked_source_injects () =
  (* A register that is both source and blocked stays a source — the
     inject-over-blocked priority of Ift's phase 3. *)
  let nl = N.create "sb" in
  let src = mk_src nl in
  let masks = A.taint_reach ~blocked:[ src ] ~sources:[ src ] nl in
  Alcotest.(check bool) "source wins over blocked" true (A.taint_reaches masks src)

let test_precise_const_and () =
  (* src & 0x0F: the precise rule confines taint to the constant's set
     bits; the imprecise union rule spreads it across the word. *)
  let build precise =
    let nl = N.create "cand" in
    let src = mk_src nl in
    let dst = mk_dst nl (N.op2 nl N.And src (N.const nl (bv 8 0x0F))) in
    ((A.taint_reach ~precise ~sources:[ src ] nl).(dst) : Bitvec.t)
  in
  Alcotest.(check int) "precise: masked to 0x0F" 0x0F (Bitvec.to_int (build true));
  Alcotest.(check int) "imprecise: whole word" 0xFF (Bitvec.to_int (build false))

let test_precise_mux_equal_const_branches () =
  (* mux on a tainted select with identical constant branches leaks
     nothing under the precise rule; the imprecise rule taints the word. *)
  let build precise =
    let nl = N.create "mux" in
    let src = mk_src nl in
    let sel = N.extract nl ~hi:0 ~lo:0 src in
    let c = N.const nl (bv 8 0x3C) in
    let dst = mk_dst nl (N.mux nl ~sel ~on_true:c ~on_false:c) in
    ((A.taint_reach ~precise ~sources:[ src ] nl).(dst) : Bitvec.t)
  in
  Alcotest.(check int) "precise: equal branches leak nothing" 0
    (Bitvec.to_int (build true));
  Alcotest.(check int) "imprecise: select taints word" 0xFF
    (Bitvec.to_int (build false))

let test_arithmetic_whole_word () =
  let nl = N.create "add" in
  let src = mk_src nl in
  (* only bit 0 of src feeds the adder, but the whole sum is tainted *)
  let b0 = N.extract nl ~hi:0 ~lo:0 src in
  let wide = N.concat nl [ N.const nl (bv 7 0); b0 ] in
  let dst = mk_dst nl (N.op2 nl N.Add wide (N.input nl "o" 8)) in
  let masks = A.taint_reach ~sources:[ src ] nl in
  Alcotest.(check int) "add taints whole word" 0xFF (Bitvec.to_int masks.(dst))

(* --- qcheck: static >= dynamic ---------------------------------------- *)

(* Build a random two-register netlist, compute the static masks on the
   bare netlist, then instrument it with Ift in the SAME precision mode
   and simulate under random stimulus with intermittent injection: no
   original signal may ever carry a dynamic taint bit outside its static
   mask.  This is exactly the property SynthLC's flow pruning relies on. *)
let random_comb rng nl src other =
  let const () = N.const nl (bv 8 (Random.State.int rng 256)) in
  let rec gen depth =
    if depth = 0 then
      match Random.State.int rng 3 with
      | 0 -> src
      | 1 -> other
      | _ -> const ()
    else
      let a = gen (depth - 1) and b = gen (depth - 1) in
      match Random.State.int rng 9 with
      | 0 -> N.op2 nl N.And a b
      | 1 -> N.op2 nl N.Or a b
      | 2 -> N.op2 nl N.Xor a b
      | 3 -> N.op2 nl N.Add a b
      | 4 -> N.not_ nl a
      | 5 ->
        let sel = N.extract nl ~hi:0 ~lo:0 b in
        N.mux nl ~sel ~on_true:a ~on_false:b
      | 6 -> N.concat nl [ N.extract nl ~hi:3 ~lo:0 a; N.extract nl ~hi:7 ~lo:4 b ]
      | 7 ->
        let c = N.op2 nl N.Ult a b in
        N.mux nl ~sel:c ~on_true:a ~on_false:(N.op2 nl N.Sub a b)
      | _ -> N.op2 nl N.Mul a (const ())
  in
  gen (1 + Random.State.int rng 3)

let check_static_contains_dynamic ~precise seed =
  let rng = Random.State.make [| seed |] in
  let nl = N.create "rand" in
  let inj = N.input nl "inj" 1 in
  let data = N.input nl "data" 8 in
  let other = N.input nl "other" 8 in
  let src = N.reg nl ~name:"src" ~init:(N.Init_value (bv 8 0)) ~width:8 () in
  N.connect_reg nl src data;
  let f = random_comb rng nl src other in
  let dst = mk_dst nl f in
  let blocked = if Random.State.bool rng then [ dst ] else [] in
  let n0 = N.num_nodes nl in
  let masks = A.taint_reach ~precise ~blocked ~sources:[ src ] nl in
  let ift = Ift.instrument ~precise ~inject:[ (src, inj) ] ~blocked nl in
  let sim = Sim.create nl in
  let ok = ref true in
  for cycle = 1 to 24 do
    Sim.poke sim inj (Bitvec.of_bool (Random.State.int rng 3 = 0));
    Sim.poke sim data (bv 8 (Random.State.int rng 256));
    Sim.poke sim other (bv 8 (Random.State.int rng 256));
    Sim.eval sim;
    for s = 0 to n0 - 1 do
      let dyn = Sim.peek sim (Ift.taint_of ift s) in
      if not (Bitvec.is_zero (Bitvec.logand dyn (Bitvec.lognot masks.(s)))) then begin
        ok := false;
        QCheck.Test.fail_reportf
          "seed %d cycle %d: signal %d dynamic taint %s escapes static mask %s"
          seed cycle s
          (Bitvec.to_hex_string dyn)
          (Bitvec.to_hex_string masks.(s))
      end
    done;
    Sim.step sim
  done;
  !ok

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let qcheck_static_superset_precise =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"static taint contains dynamic (precise)"
       arb_seed
       (check_static_contains_dynamic ~precise:true))

let qcheck_static_superset_imprecise =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"static taint contains dynamic (imprecise)" arb_seed
       (check_static_contains_dynamic ~precise:false))

(* --- imprecise IFT is cache-namespaced --------------------------------- *)

(* A precise run must never replay an imprecise run's verdicts (or vice
   versa): the [|ift:imprecise] salt keeps their cache keys disjoint even
   where the instrumented-netlist digests happen to agree.  Nor may the
   two share a report digest: the precision knob is part of the report's
   identity. *)
let test_imprecise_cache_namespaced () =
  let dir =
    let f = Filename.temp_file "taintcache" ".d" in
    Sys.remove f;
    f
  in
  let design () = Test_mupath.toy_design () in
  let decisions =
    let r =
      Mupath.Synth.run ~config:Test_mupath.toy_config ~meta:(design ())
        ~iuv:(Isa.make Isa.ADD) ~iuv_pc:2 ()
    in
    List.filter (fun (_, ds) -> List.length ds > 1) r.Mupath.Synth.decisions
  in
  let run ~precise =
    let cache = Vcache.create ~dir () in
    let a =
      Synthlc.Flow.analyze ~cache ~config:Test_mupath.toy_config ~precise
        ~meta:(design ()) ~transponder:(Isa.make Isa.ADD) ~decisions
        ~transmitters:[ Isa.ADD ] ~kind:Synthlc.Types.Intrinsic
        ~operand:Synthlc.Types.Rs1 ~iuv_pc:2 ()
    in
    let hits, misses, _ = Vcache.counters cache in
    (a, hits, misses)
  in
  let _, h1, m1 = run ~precise:true in
  Alcotest.(check int) "cold precise run has no hits" 0 h1;
  Alcotest.(check bool) "cold precise run misses" true (m1 > 0);
  let _, h2, _ = run ~precise:true in
  Alcotest.(check bool) "warm precise run replays" true (h2 > 0);
  let _, h3, m3 = run ~precise:false in
  Alcotest.(check int) "imprecise run shares nothing" 0 h3;
  Alcotest.(check bool) "imprecise run misses" true (m3 > 0);
  let digest ~precise =
    Synthlc.Engine.report_digest
      (Synthlc.Engine.run ~config:Test_mupath.toy_config ~precise ~design
         ~jobs:1 ~instructions:[ Isa.make Isa.ADD ] ~transmitters:[ Isa.ADD ]
         ~kinds:[ Synthlc.Types.Intrinsic ] ~revisit_count_labels:[]
         ~iuv_pc:2 ())
  in
  Alcotest.(check bool) "imprecise digest differs" true
    (digest ~precise:false <> digest ~precise:true)

(* --- the static leakage grid on a real design -------------------------- *)

let test_ibex_grid () =
  let grid =
    Synthlc.Engine.static_leakage_grid ~precise:true (Designs.Ibex.build ())
  in
  Alcotest.(check int) "both operands analysed" 2 (List.length grid);
  List.iter
    (fun (op, live) ->
      Alcotest.(check bool)
        (Synthlc.Types.operand_name op ^ " taint reaches some PL")
        true (live <> []))
    grid

let suite =
  ( "taint",
    [
      Alcotest.test_case "chain reach and blocked kill" `Quick
        test_chain_and_kill;
      Alcotest.test_case "source wins over blocked" `Quick
        test_blocked_source_injects;
      Alcotest.test_case "precise constant AND" `Quick test_precise_const_and;
      Alcotest.test_case "precise equal-const mux branches" `Quick
        test_precise_mux_equal_const_branches;
      Alcotest.test_case "arithmetic whole-word" `Quick
        test_arithmetic_whole_word;
      qcheck_static_superset_precise;
      qcheck_static_superset_imprecise;
      Alcotest.test_case "imprecise IFT cache-namespaced" `Quick
        test_imprecise_cache_namespaced;
      Alcotest.test_case "ibex static leakage grid" `Quick test_ibex_grid;
    ] )
