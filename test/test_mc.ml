(* Model-checker tests on small hand-built designs where ground truth is
   obvious: BMC witnesses, k-induction proofs, bounded verdicts, assumption
   handling, literal-conjunction covers, and budget-driven undetermined
   outcomes. *)

module N = Hdl.Netlist
module C = Mc.Checker

(* An 8-bit counter that increments when [go] is high. *)
let counter_design () =
  let nl = N.create "counter" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let go = input "go" 1 in
  let count = reg ~name:"count" ~width:8 () in
  count <== mux go (count +: of_int 8 1) count;
  let at5 = wire ~name:"at5" 1 in
  at5 <== eq_const count 5;
  let at200 = wire ~name:"at200" 1 in
  at200 <== eq_const count 200;
  let odd = wire ~name:"odd" 1 in
  odd <== bit count 0;
  (nl, go, at5, at200, odd)

let quick_config =
  { C.default_config with C.bmc_depth = 10; sim_episodes = 4; sim_cycles = 12 }

let test_reachable_with_witness () =
  let nl, _, at5, _, _ = counter_design () in
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  match C.check_cover chk [ (at5, true) ] with
  | C.Reachable cex ->
    (* count reaches 5 no earlier than cycle 5 *)
    let len = C.Cex.length cex in
    Alcotest.(check bool) "witness length sane" true (len >= 6 && len <= 13);
    Alcotest.(check int) "count value at end" 5
      (Bitvec.to_int (C.Cex.value_exn cex "count" ~cycle:(len - 1)))
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o)

let test_bounded_unreachable () =
  let nl, _, _, at200, _ = counter_design () in
  (* 200 needs 200 cycles; depth 10 cannot reach it, induction cannot prove
     it (the counter state space admits long simple paths), so we get a
     bounded verdict. *)
  let chk =
    C.create
      ~config:{ quick_config with C.induction_max_k = 1; sim_episodes = 2 }
      ~assumes:[] nl
  in
  (match C.check_cover chk [ (at200, true) ] with
  | C.Unreachable (C.Bounded d) -> Alcotest.(check int) "depth" 10 d
  | o -> Alcotest.failf "expected bounded-unreachable, got %s" (C.outcome_tag o))

let test_inductive_unreachable () =
  (* A 1-bit register stuck at 0: "reg = 1" is inductively unreachable. *)
  let nl = N.create "stuck" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let r = reg ~name:"r" ~width:1 () in
  r <== (r &: r);
  let bad = wire ~name:"bad" 1 in
  bad <== r;
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  match C.check_cover chk [ (bad, true) ] with
  | C.Unreachable (C.Inductive k) -> Alcotest.(check bool) "small k" true (k <= 1)
  | o -> Alcotest.failf "expected inductive, got %s" (C.outcome_tag o)

let test_assumes_constrain () =
  let nl, go, at5, _, _ = counter_design () in
  (* Assume go is always low: the counter never moves. *)
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let no_go = wire ~name:"no_go" 1 in
  no_go <== ~:go;
  let chk = C.create ~config:quick_config ~assumes:[ no_go ] nl in
  (match C.check_cover chk [ (at5, true) ] with
  | C.Unreachable _ -> ()
  | o -> Alcotest.failf "expected unreachable under assumption, got %s" (C.outcome_tag o))

let test_conjunction_and_negation () =
  let nl, _, at5, _, odd = counter_design () in
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  (* count = 5 and odd: consistent. *)
  (match C.check_cover chk [ (at5, true); (odd, true) ] with
  | C.Reachable _ -> ()
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o));
  (* count = 5 and not odd: contradictory. *)
  match C.check_cover chk [ (at5, true); (odd, false) ] with
  | C.Unreachable _ -> ()
  | o -> Alcotest.failf "expected unreachable, got %s" (C.outcome_tag o)

let test_stats_accumulate () =
  let nl, _, at5, _, odd = counter_design () in
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  ignore (C.check_cover chk [ (at5, true) ]);
  ignore (C.check_cover chk [ (odd, true) ]);
  let s = C.stats chk in
  Alcotest.(check int) "two props" 2 s.C.Stats.n_props;
  Alcotest.(check int) "both reachable" 2 s.C.Stats.n_reachable;
  Alcotest.(check bool) "time recorded" true (s.C.Stats.total_time >= 0.)

let test_symbolic_init_reachability () =
  (* A symbolically initialized register makes "r = 0xAB" reachable at cycle
     0 even though no transition produces it. *)
  let nl = N.create "sym" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let r = reg_symbolic ~name:"r" ~width:8 () in
  r <== zero 8;
  let hit = wire ~name:"hit" 1 in
  hit <== eq_const r 0xAB;
  let chk =
    C.create ~config:{ quick_config with C.sim_episodes = 0 } ~assumes:[] nl
  in
  match C.check_cover chk [ (hit, true) ] with
  | C.Reachable cex ->
    Alcotest.(check int) "witness at cycle 0" 1 (C.Cex.length cex)
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o)

let suite =
  ( "mc",
    [
      Alcotest.test_case "reachable with witness" `Quick test_reachable_with_witness;
      Alcotest.test_case "bounded unreachable" `Quick test_bounded_unreachable;
      Alcotest.test_case "inductive unreachable" `Quick test_inductive_unreachable;
      Alcotest.test_case "assumptions constrain" `Quick test_assumes_constrain;
      Alcotest.test_case "conjunction and negation" `Quick test_conjunction_and_negation;
      Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
      Alcotest.test_case "symbolic initial state" `Quick test_symbolic_init_reachability;
    ] )
