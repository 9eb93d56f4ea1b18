(* Harness monitor semantics, validated against hand-driven simulation on
   the toy DUV: visited flags, freeze-at-gone, consecutive/re-entry flags,
   first-entry edge flags, max-run counters, and the IUV-encoding /
   PC-uniqueness assumptions. *)

module N = Hdl.Netlist

let mk ?(iuv = Isa.make Isa.ADD) () =
  let meta = Test_mupath.toy_design () in
  let h = Mupath.Harness.create ~meta ~iuv ~iuv_pc:2 () in
  (meta, h)

(* Drive the toy design directly: word/operand inputs per cycle. *)
let drive sim meta ~word ~operand =
  let nl = meta.Designs.Meta.nl in
  let s n = Option.get (N.find_named nl n) in
  Sim.poke sim (s "word_in") word;
  Sim.poke sim (s "operand_in") (Bitvec.of_int ~width:8 operand);
  Sim.eval sim;
  Sim.step sim

let test_monitor_flags () =
  let iuv = Isa.make Isa.ADD in
  let meta, h = mk ~iuv () in
  let nl = meta.Designs.Meta.nl in
  let sim = Sim.create ~seed:2 nl in
  (* Tokens 0 and 1 take the B path (operand odd); token 2 (the IUV) takes
     the C path (operand even) and then retires. *)
  let enc = Isa.encode iuv in
  for c = 0 to 11 do
    drive sim meta ~word:enc ~operand:(if c < 4 then 1 else 0)
  done;
  Sim.eval sim;
  let b sig_ = Sim.peek_bool sim sig_ in
  Alcotest.(check bool) "visited A" true (b (Mupath.Harness.visited h "A"));
  Alcotest.(check bool) "visited C" true (b (Mupath.Harness.visited h "C"));
  Alcotest.(check bool) "not visited B" false (b (Mupath.Harness.visited h "B"));
  Alcotest.(check bool) "C consecutive" true (b (Mupath.Harness.cons_flag h "C"));
  Alcotest.(check bool) "A not consecutive" false (b (Mupath.Harness.cons_flag h "A"));
  Alcotest.(check bool) "no re-entry" false (b (Mupath.Harness.reenter_flag h "C"));
  Alcotest.(check bool) "gone after retire" true (b (Mupath.Harness.gone h));
  Alcotest.(check bool) "edge A->C observed" true
    (b (Mupath.Harness.edge_flag h ("A", "C")));
  Alcotest.(check bool) "edge A->B not observed" false
    (b (Mupath.Harness.edge_flag h ("A", "B")))

let test_freeze_after_gone () =
  (* After the IUV retires, later tokens through B must not pollute its
     visited flags. *)
  let iuv = Isa.make Isa.ADD in
  let meta, h = mk ~iuv () in
  let sim = Sim.create ~seed:3 meta.Designs.Meta.nl in
  let enc = Isa.encode iuv in
  for c = 0 to 19 do
    (* IUV (token 2) takes C; all later tokens take B. *)
    drive sim meta ~word:enc ~operand:(if c <= 8 then 0 else 1)
  done;
  Sim.eval sim;
  Alcotest.(check bool) "gone" true (Sim.peek_bool sim (Mupath.Harness.gone h));
  Alcotest.(check bool) "B still unvisited (frozen)" false
    (Sim.peek_bool sim (Mupath.Harness.visited h "B"))

let test_edge_candidates_from_connectivity () =
  let _, h = mk () in
  let cands = Mupath.Harness.edge_candidates h in
  (* The toy's single µFSM feeds itself: all ordered label pairs are
     candidates. *)
  Alcotest.(check bool) "A->B candidate" true (List.mem ("A", "B") cands);
  Alcotest.(check bool) "A->C candidate" true (List.mem ("A", "C") cands);
  (* Core: the divider µFSM reads the issue stage, so issue->divU must be a
     candidate; the divider does not feed the fetch stage. *)
  let meta = Designs.Core.build Designs.Core.baseline in
  let h =
    Mupath.Harness.create ~meta ~iuv:(Isa.make Isa.DIV)
      ~iuv_pc:Designs.Core.iuv_pc ()
  in
  let cands = Mupath.Harness.edge_candidates h in
  Alcotest.(check bool) "issue->divU candidate" true (List.mem ("issue", "divU") cands)

let test_maxrun_counter () =
  let iuv = Isa.make Isa.ADD in
  let meta = Test_mupath.toy_design () in
  let h =
    Mupath.Harness.create ~revisit_count_labels:[ "C" ] ~meta ~iuv ~iuv_pc:2 ()
  in
  let sim = Sim.create ~seed:5 meta.Designs.Meta.nl in
  let enc = Isa.encode iuv in
  for c = 0 to 11 do
    drive sim meta ~word:enc ~operand:(if c < 4 then 1 else 0)
  done;
  Sim.eval sim;
  Alcotest.(check int) "maxrun register C" 2
    (Bitvec.to_int (Sim.peek sim (Mupath.Harness.maxrun h "C")));
  Alcotest.(check bool) "maxrun C = 2" true
    (Sim.peek_bool sim (Mupath.Harness.maxrun_eq h "C" 2));
  Alcotest.(check bool) "maxrun C <> 1" false
    (Sim.peek_bool sim (Mupath.Harness.maxrun_eq h "C" 1))

let test_assumes_present () =
  let _, h = mk () in
  (* One IFR slot contributes an encoding pin and a no-refetch assumption. *)
  Alcotest.(check int) "two assumptions" 2 (List.length (Mupath.Harness.assumes h));
  let meta = Designs.Cache.build () in
  let h = Mupath.Harness.create ~meta ~iuv:(Isa.make Isa.LW) ~iuv_pc:2 () in
  (* Cache adds its environment constraint on top. *)
  Alcotest.(check int) "cache has three" 3 (List.length (Mupath.Harness.assumes h))

let test_unlabeled_states_enumerated () =
  let meta = Designs.Core.build Designs.Core.baseline in
  let h =
    Mupath.Harness.create ~meta ~iuv:(Isa.make Isa.ADD)
      ~iuv_pc:Designs.Core.iuv_pc ()
  in
  (* Each scoreboard entry has 3 unlabeled non-idle valuations (5,6,7) and
     the load unit one (3): 4*3 + 1 = 13 on the baseline core. *)
  Alcotest.(check int) "unlabeled states" 13
    (List.length (Mupath.Harness.unlabeled_states h))

let suite =
  ( "harness",
    [
      Alcotest.test_case "monitor flags" `Quick test_monitor_flags;
      Alcotest.test_case "freeze after gone" `Quick test_freeze_after_gone;
      Alcotest.test_case "edge candidates" `Quick test_edge_candidates_from_connectivity;
      Alcotest.test_case "maxrun counter" `Quick test_maxrun_counter;
      Alcotest.test_case "assumptions present" `Quick test_assumes_present;
      Alcotest.test_case "unlabeled state enumeration" `Quick test_unlabeled_states_enumerated;
    ] )
