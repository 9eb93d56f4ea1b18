(* CVA6-lite functional verification: differential testing of the pipelined
   core against the golden architectural model, across all design variants,
   on directed and random programs. *)

module Meta = Designs.Meta

let run_core ?(cfg = Designs.Core.all_fixed) ?(cycles = 120) ?(seed = 13)
    ~regs program =
  let meta = Designs.Core.build cfg in
  let sim = Sim.create ~seed meta.Meta.nl in
  List.iteri
    (fun i r -> if i < Array.length regs - 1 then Sim.poke_reg sim r regs.(i + 1))
    meta.Meta.arf;
  (* Zero memory so it matches the golden model's initial state. *)
  List.iter (fun m -> Sim.poke_reg sim m (Bitvec.zero 8)) meta.Meta.amem;
  let commits = ref 0 in
  Sim.run sim ~cycles ~stimulus:(Designs.Stimulus.program meta program)
    ~observe:(fun sim _ -> if Sim.peek_bool sim meta.Meta.commit then incr commits);
  Sim.eval sim;
  let regs_out =
    Array.init 4 (fun i ->
        if i = 0 then Bitvec.zero 8
        else Sim.peek sim (List.nth meta.Meta.arf (i - 1)))
  in
  let mem_out = Array.of_list (List.map (Sim.peek sim) meta.Meta.amem) in
  (regs_out, mem_out, !commits)

let golden_run ~regs ~commits program =
  let st = Golden.create ~regs () in
  Golden.run st ~program ~max_steps:commits;
  (Array.init 4 (Golden.reg st), Array.copy st.Golden.mem)

let zero_regs () = Array.make 4 (Bitvec.zero 8)

let check_against_golden ?(cfg = Designs.Core.all_fixed) ~regs src =
  let program = match Isa.assemble src with Ok p -> p | Error e -> failwith e in
  let core_regs, core_mem, commits = run_core ~cfg ~regs program in
  Alcotest.(check bool) "some commits" true (commits > 0);
  let gold_regs, gold_mem = golden_run ~regs ~commits program in
  Array.iteri
    (fun i v ->
      if not (Bitvec.equal v core_regs.(i)) then
        Alcotest.failf "r%d: core=%s golden=%s (program %s)" i
          (Bitvec.to_hex_string core_regs.(i))
          (Bitvec.to_hex_string v) src)
    gold_regs;
  Array.iteri
    (fun i v ->
      if not (Bitvec.equal v core_mem.(i)) then
        Alcotest.failf "mem[%d]: core=%s golden=%s (program %s)" i
          (Bitvec.to_hex_string core_mem.(i))
          (Bitvec.to_hex_string v) src)
    gold_mem

let test_directed () =
  let regs = zero_regs () in
  List.iter
    (check_against_golden ~regs)
    [
      "addi r1, r0, 7\naddi r2, r0, 9\nadd r3, r1, r2\nsub r1, r3, r2";
      "addi r1, r0, 250\naddi r2, r0, 10\nadd r3, r1, r2";
      "addi r1, r0, 200\naddi r2, r0, 3\nmul r3, r1, r2";
      "addi r1, r0, 77\naddi r2, r0, 6\ndivu r3, r1, r2\nremu r1, r1, r2";
      "addi r1, r0, 249\naddi r2, r0, 2\ndiv r3, r1, r2\nrem r1, r1, r2";
      "addi r1, r0, 42\ndivu r2, r1, r0\nremu r3, r1, r0";
      "addi r1, r0, 99\nsw r1, 5(r0)\nlw r2, 5(r0)\nlb r3, 5(r0)";
      "addi r1, r0, 3\nsll r2, r1, r1\nsrl r3, r2, r1\nsra r3, r2, r1";
      "addi r1, r0, 5\nslt r2, r0, r1\nsltu r3, r1, r0";
      "andi r1, r0, 255\nori r2, r1, 170\nxori r3, r2, 255";
      "addi r1, r0, 1\nbeq r1, r1, 12\naddi r2, r0, 1\naddi r3, r0, 2";
      "addi r1, r0, 1\nbne r1, r1, 12\naddi r2, r0, 1\naddi r3, r0, 2";
      "jal r1, 8\naddi r2, r0, 1\naddi r3, r0, 2";
      "addi r1, r0, 12\njalr r2, r1, 0\naddi r3, r0, 9\nxor r3, r3, r3";
      "addi r1, r0, 8\nsw r1, 2(r0)\nsb r1, 2(r0)\nlw r2, 2(r0)";
    ]

(* Random differential: programs without control flow (control handled by
   directed tests; random branch targets would loop unpredictably). *)
let straightline_ops =
  List.filter
    (fun op ->
      match Isa.class_of op with
      | Isa.Branch | Isa.Jump -> false
      | _ -> true)
    Isa.all_opcodes

let random_program rng n =
  List.init n (fun _ ->
      let op = List.nth straightline_ops (Random.State.int rng (List.length straightline_ops)) in
      Isa.make
        ~rd:(Random.State.int rng 4)
        ~rs1:(Random.State.int rng 4)
        ~rs2:(Random.State.int rng 4)
        ~imm:(Random.State.int rng 256)
        op)

let test_random_differential () =
  let rng = Random.State.make [| 2024 |] in
  for trial = 1 to 25 do
    let program = random_program rng (4 + Random.State.int rng 8) in
    let regs =
      Array.init 4 (fun i -> if i = 0 then Bitvec.zero 8 else Bitvec.random rng 8)
    in
    let core_regs, core_mem, commits = run_core ~regs program in
    let gold_regs, gold_mem = golden_run ~regs ~commits program in
    for i = 0 to 3 do
      if not (Bitvec.equal gold_regs.(i) core_regs.(i)) then
        Alcotest.failf "trial %d r%d: core=%s golden=%s prog=[%s]" trial i
          (Bitvec.to_hex_string core_regs.(i))
          (Bitvec.to_hex_string gold_regs.(i))
          (String.concat "; " (List.map Isa.to_string program))
    done;
    for i = 0 to 7 do
      if not (Bitvec.equal gold_mem.(i) core_mem.(i)) then
        Alcotest.failf "trial %d mem[%d] mismatch prog=[%s]" trial i
          (String.concat "; " (List.map Isa.to_string program))
    done
  done

(* Random differential including control flow: branch/jump targets are
   forced 4-byte aligned (no exceptions), so the golden model and the core
   follow the same architectural path, loops included. *)
let random_cf_program rng n =
  List.init n (fun _ ->
      let op = List.nth Isa.all_opcodes (Random.State.int rng 32) in
      let imm =
        match Isa.class_of op with
        | Isa.Branch | Isa.Jump -> Random.State.int rng 64 * 4
        | _ -> Random.State.int rng 256
      in
      let op = if op = Isa.JALR then Isa.JAL else op in
      (* JALR targets come from registers; excluded to keep targets aligned *)
      Isa.make
        ~rd:(Random.State.int rng 4)
        ~rs1:(Random.State.int rng 4)
        ~rs2:(Random.State.int rng 4)
        ~imm op)

let test_random_control_flow_differential () =
  let rng = Random.State.make [| 777 |] in
  for trial = 1 to 15 do
    let program = random_cf_program rng (4 + Random.State.int rng 6) in
    let regs =
      Array.init 4 (fun i -> if i = 0 then Bitvec.zero 8 else Bitvec.random rng 8)
    in
    let core_regs, core_mem, commits = run_core ~regs program in
    if commits > 0 then begin
      let gold_regs, gold_mem = golden_run ~regs ~commits program in
      for i = 0 to 3 do
        if not (Bitvec.equal gold_regs.(i) core_regs.(i)) then
          Alcotest.failf "cf trial %d r%d: core=%s golden=%s prog=[%s]" trial i
            (Bitvec.to_hex_string core_regs.(i))
            (Bitvec.to_hex_string gold_regs.(i))
            (String.concat "; " (List.map Isa.to_string program))
      done;
      for i = 0 to 7 do
        if not (Bitvec.equal gold_mem.(i) core_mem.(i)) then
          Alcotest.failf "cf trial %d mem[%d] mismatch prog=[%s]" trial i
            (String.concat "; " (List.map Isa.to_string program))
      done
    end
  done

let test_variants_agree () =
  (* The MUL and OP variants are architecturally equivalent to baseline. *)
  let regs = zero_regs () in
  List.iter
    (fun cfg ->
      check_against_golden ~cfg ~regs
        "addi r1, r0, 6\naddi r2, r0, 7\nmul r3, r1, r2\nadd r1, r1, r2\nadd r2, r3, r1";
      check_against_golden ~cfg ~regs
        "addi r1, r0, 0\nmul r3, r1, r2\naddi r2, r0, 3\nmul r1, r2, r2")
    [
      { Designs.Core.all_fixed with Designs.Core.zero_skip_mul = true };
      { Designs.Core.all_fixed with Designs.Core.operand_packing = true };
    ]

let test_zero_skip_timing () =
  (* The variant changes timing, not results: same architectural outcome,
     fewer cycles to commit with a zero operand. *)
  let commit_cycle_of zero =
    let meta = Designs.Core.build Designs.Core.cva6_mul in
    let sim = Sim.create ~seed:4 meta.Meta.nl in
    List.iteri
      (fun i r ->
        Sim.poke_reg sim r
          (Bitvec.of_int ~width:8 (if i = 0 && zero then 0 else 9)))
      meta.Meta.arf;
    let program =
      match Isa.assemble "mul r3, r1, r2" with Ok p -> p | Error e -> failwith e
    in
    let out = ref None in
    Sim.run sim ~cycles:30 ~stimulus:(Designs.Stimulus.program meta program)
      ~observe:(fun sim c ->
        if
          Sim.peek_bool sim meta.Meta.commit
          && Bitvec.to_int (Sim.peek sim meta.Meta.commit_pc) = 0
          && !out = None
        then out := Some c);
    Option.get !out
  in
  Alcotest.(check int) "zero-skip saves 3 cycles" 3
    (commit_cycle_of false - commit_cycle_of true)

let test_metadata_wellformed () =
  List.iter
    (fun cfg ->
      let meta = Designs.Core.build cfg in
      Hdl.Netlist.validate meta.Meta.nl;
      Alcotest.(check bool) "has ufsms" true (List.length meta.Meta.ufsms >= 14);
      Alcotest.(check bool) "has ifr slots" true (List.length meta.Meta.ifrs >= 1);
      Alcotest.(check int) "arf size" 3 (List.length meta.Meta.arf);
      Alcotest.(check int) "amem size" 8 (List.length meta.Meta.amem);
      List.iter
        (fun (u : Meta.ufsm) ->
          Alcotest.(check bool)
            (u.Meta.ufsm_name ^ " has labels")
            true
            (List.length u.Meta.state_labels >= 1))
        meta.Meta.ufsms)
    [ Designs.Core.baseline; Designs.Core.cva6_mul; Designs.Core.cva6_op ]

let suite =
  ( "core",
    [
      Alcotest.test_case "directed vs golden" `Quick test_directed;
      Alcotest.test_case "random differential" `Slow test_random_differential;
      Alcotest.test_case "random control-flow differential" `Slow
        test_random_control_flow_differential;
      Alcotest.test_case "variants agree with golden" `Quick test_variants_agree;
      Alcotest.test_case "zero-skip timing" `Quick test_zero_skip_timing;
      Alcotest.test_case "metadata well-formed" `Quick test_metadata_wellformed;
    ] )
