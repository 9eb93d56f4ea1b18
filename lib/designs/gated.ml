(* A minimal DUV whose µFSM state space is over-approximated by the plain
   FSM-reachability abstraction but tightened by known-bits (see
   Hdl.Absint): the "gate" µFSM's upper state bit is fed through an AND
   with a register that provably stays 0 from reset.  The base abstraction
   treats that register as unconstrained (it is not one of the µFSM's state
   variables), so it reaches all four states; the known-bits refinement
   proves the two upper states dead and the synthesis prune discharges
   their covers without the model checker.  This is the demo workload for
   the absint prune path — the absint and sweep tests and the CI smoke all
   drive it. *)

module N = Hdl.Netlist

let iuv_pc = 2

let build () =
  let nl = N.create "gated" in
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
  let idle = eq_const st 0 in
  let in_a = eq_const st 1 in
  let in_b = eq_const st 2 in
  let retire = in_b in
  let accept = idle |: retire in
  let () =
    st
    <== priority_mux
          [ (in_a, of_int 2 2); (retire, mux accept (of_int 2 1) (zero 2)) ]
          (mux (idle &: accept) (of_int 2 1) st);
    pc <== mux (accept &: (idle |: retire)) ctr pc;
    ctr <== mux (accept &: (idle |: retire)) (ctr +: of_int Isa.pc_bits 1) ctr;
    word <== mux (accept &: (idle |: retire)) word_in word;
    opnd <== mux (accept &: (idle |: retire)) operand_in opnd
  in
  (* The gate: [z] is 0 at reset and its next-state keeps it 0 in every
     reachable state — but only a register-step fixpoint can see that; no
     structural constant fold applies.  [aux]'s upper bit is AND-gated on
     [z], so states 2 and 3 of the "gate" µFSM are dead exactly when the
     known-bits invariant z ≡ 0 is available. *)
  let z = reg ~name:"z" ~width:1 () in
  let () = z <== (z &: bit word 0) in
  let aux = reg ~name:"aux" ~width:2 () in
  let () = aux <== concat [ z &: retire; in_a ] in
  let commit = wire ~name:"commit" 1 in
  commit <== retire;
  let commit_pc = wire ~name:"commit_pc" Isa.pc_bits in
  commit_pc <== pc;
  let flush = wire ~name:"flush" 1 in
  flush <== gnd;
  let stage_valid = wire ~name:"stage_valid" 1 in
  stage_valid <== in_a;
  {
    Meta.design_name = "gated";
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
            ];
        };
        {
          Meta.ufsm_name = "gate";
          pcr = pc;
          vars = [ aux ];
          idle_states = [ Bitvec.zero 2 ];
          state_labels = [ (Bitvec.of_int ~width:2 1, "G1") ];
        };
      ];
    operand_regs = [ ("rs1", opnd) ];
    arf = [];
    amem = [];
    extra_assumes = [];
  }
