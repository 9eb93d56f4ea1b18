(* Static taint-flow tests: unit rules of Hdl.Analysis.taint_reach (chain
   reach, blocked kill, value-aware precision), the qcheck soundness
   property (the static mask, with or without known bits, contains every
   bit the Ift-instrumented design can dynamically taint, in the matching
   precision mode), the imprecise-IFT cache namespace and report identity
   on the toy DUV, and pins of both instantiations of the Hdl.Taint cell
   rules on every built-in.  The digest identity of SynthLC's static flow
   pruning across its modes is pinned in the [pins] suite. *)

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
   bare netlist (optionally refined by its known bits), then instrument it
   with Ift in the SAME precision mode and simulate under random stimulus
   with intermittent injection: no original signal may ever carry a
   dynamic taint bit outside its static mask.  This is exactly the
   property SynthLC's flow pruning relies on. *)
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

let check_static_contains_dynamic ?(known_bits = false) ~precise seed =
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
  let known = if known_bits then Some (Hdl.Absint.known_bits nl) else None in
  let masks = A.taint_reach ~precise ?known ~blocked ~sources:[ src ] nl in
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

(* The known-bits envelope is the cone Flow prunes IFT covers with.  What
   sets it apart from the constant map (bits known through registers,
   partially known words) is rare in these netlists, so this arm draws
   more cases. *)
let qcheck_static_superset_known_bits =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"static taint contains dynamic (known bits)" arb_seed
       (check_static_contains_dynamic ~known_bits:true ~precise:true))

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

(* --- both instantiations of the cell rules, pinned ----------------------- *)

(* Per built-in design, operand register and precision: the digest of the
   netlist [Ift.instrument] builds (the operand injected while its read
   stage is valid, ARF and AMEM blocked), and an MD5 over the hex masks of
   [taint_reach] from that operand, without known bits and, in precise
   mode, with [Absint.known_bits].  The instrumented digest keys every
   cached IFT verdict, so a rule rewrite that merely reorders the shadow
   nodes fails here, as does one that moves a static mask. *)
let rule_pins =
  [
    ( "cva6_lite", "rs1", true, "07f27845d3793560f875af54f9ef2678",
      "0975a2e24c7d7fbd4b4b5ba6bddb5367", Some "67ffed8709f8b5b10a93bfd69503cf01" );
    ( "cva6_lite", "rs1", false, "2abf66a5c354cb0b8f7f1232c3360719",
      "ed829e093662cd41973e6cf88755e576", None );
    ( "cva6_lite", "rs2", true, "4d7f6108f77fca06b89d2d6ace5055fe",
      "0975a2e24c7d7fbd4b4b5ba6bddb5367", Some "67ffed8709f8b5b10a93bfd69503cf01" );
    ( "cva6_lite", "rs2", false, "993b5132db262f56764356d23b93467c",
      "ed829e093662cd41973e6cf88755e576", None );
    ( "cva6_mul", "rs1", true, "6b9a193304bec79f05c7af014f1f4366",
      "a378f1a76d2575cfca5de727dfde912a", Some "2a4631d9966969add1ce90f9db68731e" );
    ( "cva6_mul", "rs1", false, "696287929be2579475fe9ef1f6854a9d",
      "e2e52da5af93bdb672e9b8462e32409a", None );
    ( "cva6_mul", "rs2", true, "61cac31140637f467ab8a68fae0ee146",
      "a378f1a76d2575cfca5de727dfde912a", Some "2a4631d9966969add1ce90f9db68731e" );
    ( "cva6_mul", "rs2", false, "f842d615c32a872427d0324098903754",
      "e2e52da5af93bdb672e9b8462e32409a", None );
    ( "cva6_op", "rs1", true, "94015b452e5c603e141c0802e4a21f4f",
      "0000ceab1f21798928538dbce88ceddf", Some "9bbdc987a3ab5c5aad0fd359c91a2475" );
    ( "cva6_op", "rs1", false, "45ff3c34b3524d63f163f428c51c3440",
      "7e0ffe3b8f21708c43d3f254a9f046bf", None );
    ( "cva6_op", "rs2", true, "75a208bc8bb56cb4f9e0c6f5ac584bf2",
      "0000ceab1f21798928538dbce88ceddf", Some "9bbdc987a3ab5c5aad0fd359c91a2475" );
    ( "cva6_op", "rs2", false, "47b0bc7249bdc692cffd5a0c903c8886",
      "7e0ffe3b8f21708c43d3f254a9f046bf", None );
    ( "cva6_fixed", "rs1", true, "60cb5c626b54c6e7abca3d58d0e81b7e",
      "0975a2e24c7d7fbd4b4b5ba6bddb5367", Some "67ffed8709f8b5b10a93bfd69503cf01" );
    ( "cva6_fixed", "rs1", false, "a308e7f496c1cb41f9094d5972057e97",
      "ed829e093662cd41973e6cf88755e576", None );
    ( "cva6_fixed", "rs2", true, "2d5248c36ce899525fcca8dae18171da",
      "0975a2e24c7d7fbd4b4b5ba6bddb5367", Some "67ffed8709f8b5b10a93bfd69503cf01" );
    ( "cva6_fixed", "rs2", false, "6ceea551e6dd5e42909afabfb3b2e4e3",
      "ed829e093662cd41973e6cf88755e576", None );
    ( "ibex_lite", "rs1", true, "ddcb6a3642f42e1c04774c2261e18b7e",
      "fdd524b1c1ed989ce2072144dde05cda", Some "0199faba731ef2f0f7ed400b839cbba6" );
    ( "ibex_lite", "rs1", false, "b015bdacb246baa669e5396c203a2d90",
      "b3784db8dda8d0dd33ec6b39c910c7d1", None );
    ( "ibex_lite", "rs2", true, "3df12c290b9045a84d1efabb7d68f4a8",
      "fdd524b1c1ed989ce2072144dde05cda", Some "0199faba731ef2f0f7ed400b839cbba6" );
    ( "ibex_lite", "rs2", false, "5211d6b0ba47ef0c3c5915736d49d24d",
      "b3784db8dda8d0dd33ec6b39c910c7d1", None );
    ( "cva6_cache", "rs1", true, "5eaf514a779eadfc0e00e4a16dbdab7e",
      "ed07711b4deafc671869a276863f9e51", Some "1f926382fe1529ac3846721366ac262e" );
    ( "cva6_cache", "rs1", false, "3acda319e581696e65ef2d10b4618f86",
      "d6f97eb3373d0c9bc65fc52ae19a2037", None );
    ( "cva6_cache", "rs2", true, "c257ca47adf473e785914fe1e193c8d2",
      "2fa1b87dc405a3ab7519b305f5c6269e", Some "2fa1b87dc405a3ab7519b305f5c6269e" );
    ( "cva6_cache", "rs2", false, "428fa52e0d834ea5f51e6bd261dd2a5e",
      "2fa1b87dc405a3ab7519b305f5c6269e", None );
    ( "gated", "rs1", true, "cdf40dcca2606792dc09c5b2a1bfed2c",
      "b4a7fce163c9c3f3c3bf3795bf461c45", Some "b4a7fce163c9c3f3c3bf3795bf461c45" );
    ( "gated", "rs1", false, "fa4ad439d78afcbf7c21c5ee83ec6803",
      "b4a7fce163c9c3f3c3bf3795bf461c45", None );
  ]

let masks_md5 masks =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map Bitvec.to_hex_string masks))))

let test_rules_pinned () =
  let module Meta = Designs.Meta in
  let builtins =
    List.filter
      (fun (name, _) -> not (Filename.check_suffix name ".json"))
      Test_hdl.designs
  in
  let rows =
    List.concat_map
      (fun (name, build) ->
        let meta = build () in
        let nl = meta.Meta.nl in
        let blocked = meta.Meta.arf @ meta.Meta.amem in
        let known = Hdl.Absint.known_bits nl in
        List.concat_map
          (fun (op_name, op) ->
            List.map
              (fun precise ->
                let copy = Meta.copy meta in
                ignore
                  (Ift.instrument ~precise
                     ~inject:[ (op, copy.Meta.operand_stage_valid) ]
                     ~blocked:(copy.Meta.arf @ copy.Meta.amem) copy.Meta.nl);
                let masks ?known () =
                  masks_md5 (A.taint_reach ~precise ?known ~blocked ~sources:[ op ] nl)
                in
                ( name,
                  op_name,
                  precise,
                  N.digest copy.Meta.nl,
                  masks (),
                  if precise then Some (masks ~known ()) else None ))
              [ true; false ])
          meta.Meta.operand_regs)
      builtins
  in
  let key (d, op, precise, _, _, _) =
    Printf.sprintf "%s %s %s" d op (if precise then "precise" else "imprecise")
  in
  Alcotest.(check (list string)) "every built-in operand, both precisions"
    (List.map key rule_pins) (List.map key rows);
  List.iter2
    (fun ((_, _, _, ift, plain, known) as pin) (_, _, _, ift', plain', known') ->
      let k = key pin in
      Alcotest.(check string) (k ^ ": instrumented netlist digest") ift ift';
      Alcotest.(check string) (k ^ ": static masks") plain plain';
      Alcotest.(check (option string)) (k ^ ": static masks with known bits") known
        known')
    rule_pins rows

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
      qcheck_static_superset_known_bits;
      Alcotest.test_case "imprecise IFT cache-namespaced" `Quick
        test_imprecise_cache_namespaced;
      Alcotest.test_case "cell rules pinned on every built-in" `Quick
        test_rules_pinned;
    ] )
