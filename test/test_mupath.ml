(* RTL2MµPATH tests on a purpose-built toy DUV small enough for exhaustive
   reasoning: a one-token pipeline where a token visits A, then either B
   (1 cycle) or C (2 cycles) depending on bit 0 of its operand, then
   retires.  Ground truth: exactly two µPATHs, two decision sources with
   two destinations each (A to B or C; C stays in C or leaves), C
   consecutively revisited, and HB edges A->B / A->C. *)

module Meta = Designs.Meta
module N = Hdl.Netlist

(* Build the toy DUV.  The token's "instruction word" reuses the RV-lite
   width so the harness's encoding assumption applies; the operand register
   is loaded from an input and steers the A-decision. *)
let toy_design () =
  let nl = N.create "toy" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let word_in = input "word_in" Isa.width in
  let operand_in = input "operand_in" 8 in
  let ctr = reg ~name:"ctr" ~width:Isa.pc_bits () in
  let st = reg ~name:"st" ~width:2 () in
  let pc = reg ~name:"pc" ~width:Isa.pc_bits () in
  let word = reg ~name:"word" ~width:Isa.width () in
  let opnd = reg ~name:"operand_rs1" ~width:8 () in
  let cnt = reg ~name:"cnt" ~width:2 () in
  let idle = eq_const st 0 in
  let in_a = eq_const st 1 in
  let in_b = eq_const st 2 in
  let in_c = eq_const st 3 in
  let c_done = in_c &: eq_const cnt 1 in
  let retire = in_b |: c_done in
  let accept = idle |: retire in
  let take_b = bit opnd 0 in
  let () =
    st
    <== priority_mux
          [
            (in_a, mux take_b (of_int 2 2) (of_int 2 3));
            (retire &: accept, mux accept (of_int 2 1) (zero 2));
            (in_c, of_int 2 3);
          ]
          (mux (idle &: accept) (of_int 2 1) st);
    pc <== mux (accept &: (idle |: retire)) ctr pc;
    ctr <== mux (accept &: (idle |: retire)) (ctr +: of_int Isa.pc_bits 1) ctr;
    word <== mux (accept &: (idle |: retire)) word_in word;
    opnd <== mux (accept &: (idle |: retire)) operand_in opnd;
    cnt
    <== priority_mux
          [ (in_a &: ~:take_b, of_int 2 2); (in_c, cnt -: of_int 2 1) ]
          cnt
  in
  let commit = wire ~name:"commit" 1 in
  commit <== retire;
  let commit_pc = wire ~name:"commit_pc" Isa.pc_bits in
  commit_pc <== pc;
  let flush = wire ~name:"flush" 1 in
  flush <== gnd;
  let stage_valid = wire ~name:"stage_valid" 1 in
  stage_valid <== in_a;
  {
    Meta.design_name = "toy";
    nl;
    ifrs = [ { Meta.ifr_valid = stage_valid; ifr_pc = pc; ifr_word = word } ];
    operand_stage_valid = stage_valid;
    operand_stage_pc = pc;
    commit;
    commit_pc;
    flush;
    ufsms =
      [
        {
          Meta.ufsm_name = "stage";
          pcr = pc;
          vars = [ st ];
          idle_states = [ Bitvec.zero 2 ];
          state_labels =
            [
              (Bitvec.of_int ~width:2 1, "A");
              (Bitvec.of_int ~width:2 2, "B");
              (Bitvec.of_int ~width:2 3, "C");
            ];
        };
      ];
    operand_regs = [ ("rs1", opnd) ];
    arf = [];
    amem = [];
    extra_assumes = [];
  }

let toy_config =
  { Mc.Checker.default_config with
    Mc.Checker.bmc_depth = 10;
    sim_episodes = 8;
    sim_cycles = 16;
  }

let test_pl_groups () =
  let meta = toy_design () in
  let groups = Mupath.Harness.pl_groups meta in
  Alcotest.(check (list string)) "labels" [ "A"; "B"; "C" ] (List.map fst groups);
  let meta = Designs.Core.build Designs.Core.baseline in
  let groups = Mupath.Harness.pl_groups meta in
  (* Scoreboard labels merge four µFSMs into one group. *)
  let scb_iss = List.assoc "scbIss" groups in
  Alcotest.(check int) "scbIss merges 4 entries" 4 (List.length scb_iss);
  Alcotest.(check bool) "IF present" true (List.mem_assoc "IF" groups)

let run_toy iuv =
  let meta = toy_design () in
  Mupath.Synth.run ~config:toy_config ~revisit_count_labels:[ "C" ] ~meta ~iuv
    ~iuv_pc:2 ()

let test_toy_paths () =
  let r = run_toy (Isa.make Isa.ADD) in
  Alcotest.(check (list string)) "duv pls" [ "A"; "B"; "C" ] (List.sort compare r.Mupath.Synth.duv_pls);
  Alcotest.(check int) "two uPATHs" 2 (List.length r.Mupath.Synth.paths);
  let sets =
    List.sort compare
      (List.map
         (fun p -> List.sort compare (List.map fst p.Mupath.Synth.pl_set))
         r.Mupath.Synth.paths)
  in
  Alcotest.(check (list (list string))) "path sets" [ [ "A"; "B" ]; [ "A"; "C" ] ] sets;
  (* B and C are mutually exclusive; everything implies A. *)
  Alcotest.(check bool) "B excl C" true
    (List.exists
       (fun (a, b) -> (a = "B" && b = "C") || (a = "C" && b = "B"))
       r.Mupath.Synth.exclusives);
  Alcotest.(check bool) "B -> A implication" true
    (List.mem ("B", "A") r.Mupath.Synth.implications);
  (* C is occupied two consecutive cycles. *)
  let c_path =
    List.find
      (fun p -> List.mem_assoc "C" p.Mupath.Synth.pl_set)
      r.Mupath.Synth.paths
  in
  Alcotest.(check bool) "C consecutive" true
    (match List.assoc "C" c_path.Mupath.Synth.pl_set with
    | Mupath.Synth.Consecutive | Mupath.Synth.Both -> true
    | _ -> false);
  (* HB edges. *)
  Alcotest.(check bool) "A->C edge" true
    (List.mem ("A", "C") c_path.Mupath.Synth.hb_edges);
  (* Revisit counts for C: exactly {2}. *)
  Alcotest.(check (list int)) "C occupancy count" [ 2 ]
    (List.assoc "C" r.Mupath.Synth.revisit_counts);
  (* Decision at A with two destinations. *)
  let a_dsts = List.assoc "A" r.Mupath.Synth.decisions in
  Alcotest.(check bool) "A has >=2 destinations" true (List.length a_dsts >= 2);
  Alcotest.(check bool) "A -> {B}" true (List.mem [ "B" ] a_dsts);
  Alcotest.(check bool) "A -> {C}" true (List.mem [ "C" ] a_dsts);
  (* Decision at C: stay, or leave in the cycle the IUV is gone. *)
  Alcotest.(check (list (list string))) "C -> {} or {C}" [ []; [ "C" ] ]
    (List.assoc "C" r.Mupath.Synth.decisions)

(* [--dot] draws each µPATH as a µhb (happens-before) graph. The toy ADD's
   two µPATHs convert to these bytes. *)
let test_uhb_conversion () =
  let r = run_toy (Isa.make Isa.ADD) in
  Alcotest.(check (list string)) "toy ADD"
    [
      "digraph \"add r0, r0, r0\" {\n  rankdir=TB;\n\
      \  grp_A [label=\"grp.A\",shape=ellipse];\n\
      \  grp_C [label=\"grp.C\",shape=box];\n\
      \  grp_A -> grp_C;\n}\n";
      "digraph \"add r0, r0, r0\" {\n  rankdir=TB;\n\
      \  grp_A [label=\"grp.A\",shape=ellipse];\n\
      \  grp_B [label=\"grp.B\",shape=ellipse];\n\
      \  grp_A -> grp_B;\n}\n";
    ]
    (Mupath.Synth.to_dot r)

(* A hand-made µPATH drawn in place of the toy ADD's. *)
let dot_of_path path =
  let r = run_toy (Isa.make Isa.ADD) in
  Mupath.Synth.to_dot { r with Mupath.Synth.paths = [ path ] }

(* One PL of each revisit shape, and the edges in [hb_edges] order. *)
let test_dot_rendering () =
  Alcotest.(check (list string)) "shapes and edges"
    [
      "digraph \"add r0, r0, r0\" {\n  rankdir=TB;\n\
      \  grp_A [label=\"grp.A\",shape=ellipse];\n\
      \  grp_B [label=\"grp.B\",shape=box];\n\
      \  grp_s_C [label=\"grp.s.C\",shape=doubleoctagon];\n\
      \  grp_D [label=\"grp.D\",shape=doubleoctagon];\n\
      \  grp_B -> grp_s_C;\n\
      \  grp_A -> grp_B;\n\
      \  grp_A -> grp_D;\n}\n";
    ]
    (dot_of_path
       {
         Mupath.Synth.pl_set =
           [
             ("A", Mupath.Synth.Once);
             ("B", Mupath.Synth.Consecutive);
             ("s.C", Mupath.Synth.Non_consecutive);
             ("D", Mupath.Synth.Both);
           ];
         hb_edges = [ ("B", "s.C"); ("A", "B"); ("A", "D") ];
       })

(* Edges that close a two-cycle (B->A), a self-loop (A->A) and a
   three-cycle (s.C->A) are not drawn. *)
let test_cyclic_rejected () =
  Alcotest.(check (list string)) "cycle-closing edges left out"
    [
      "digraph \"add r0, r0, r0\" {\n  rankdir=TB;\n\
      \  grp_A [label=\"grp.A\",shape=ellipse];\n\
      \  grp_B [label=\"grp.B\",shape=box];\n\
      \  grp_s_C [label=\"grp.s.C\",shape=doubleoctagon];\n\
      \  grp_A -> grp_B;\n\
      \  grp_B -> grp_s_C;\n}\n";
    ]
    (dot_of_path
       {
         Mupath.Synth.pl_set =
           [
             ("A", Mupath.Synth.Once);
             ("B", Mupath.Synth.Consecutive);
             ("s.C", Mupath.Synth.Non_consecutive);
           ];
         hb_edges =
           [ ("A", "B"); ("B", "A"); ("A", "A"); ("B", "s.C"); ("s.C", "A") ];
       })

let test_stats_recorded () =
  let r = run_toy (Isa.make Isa.ADD) in
  let total_props =
    List.fold_left (fun acc (_, s) -> acc + s.Mupath.Synth.props) 0 r.Mupath.Synth.stage_stats
  in
  Alcotest.(check bool) "some properties checked" true (total_props > 0);
  Alcotest.(check int) "checker agrees" total_props
    r.Mupath.Synth.checker_stats.Mc.Checker.Stats.n_props

let suite =
  ( "mupath",
    [
      Alcotest.test_case "pl groups" `Quick test_pl_groups;
      Alcotest.test_case "toy paths" `Quick test_toy_paths;
      Alcotest.test_case "uhb conversion" `Quick test_uhb_conversion;
      Alcotest.test_case "stats recorded" `Quick test_stats_recorded;
    ] )

(* The µhb graph drawing, on hand-made µPATHs. *)
let uhb_suite =
  ( "uhb",
    [
      Alcotest.test_case "cyclic paths rejected" `Quick test_cyclic_rejected;
      Alcotest.test_case "dot rendering" `Quick test_dot_rendering;
    ] )
