(* Ibex-lite functional verification: differential testing against the
   golden architectural model, plus the cross-design contrast the paper's
   related work draws (simple in-order cores expose only the divider's
   timing channel). *)

module Meta = Designs.Meta

let run_ibex ?(cycles = 160) ?(seed = 31) ~regs program =
  let meta = Designs.Ibex.build () in
  let sim = Sim.create ~seed meta.Meta.nl in
  List.iteri
    (fun i r -> if i < Array.length regs - 1 then Sim.poke_reg sim r regs.(i + 1))
    meta.Meta.arf;
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

let check_against_golden ~regs src =
  let program = match Isa.assemble src with Ok p -> p | Error e -> failwith e in
  let core_regs, core_mem, commits = run_ibex ~regs program in
  Alcotest.(check bool) "some commits" true (commits > 0);
  let st = Golden.create ~regs () in
  Golden.run st ~program ~max_steps:commits;
  Array.iteri
    (fun i v ->
      if not (Bitvec.equal v core_regs.(i)) then
        Alcotest.failf "r%d: ibex=%s golden=%s (program %s)" i
          (Bitvec.to_hex_string core_regs.(i))
          (Bitvec.to_hex_string v) src)
    (Array.init 4 (Golden.reg st));
  Array.iteri
    (fun i v ->
      if not (Bitvec.equal v core_mem.(i)) then
        Alcotest.failf "mem[%d]: ibex=%s golden=%s (program %s)" i
          (Bitvec.to_hex_string core_mem.(i))
          (Bitvec.to_hex_string v) src)
    st.Golden.mem

let test_directed () =
  let regs = Array.make 4 (Bitvec.zero 8) in
  List.iter
    (check_against_golden ~regs)
    [
      "addi r1, r0, 7\naddi r2, r0, 9\nadd r3, r1, r2\nsub r1, r3, r2";
      "addi r1, r0, 77\naddi r2, r0, 6\ndivu r3, r1, r2\nremu r1, r1, r2";
      "addi r1, r0, 249\naddi r2, r0, 2\ndiv r3, r1, r2\nrem r1, r1, r2";
      "addi r1, r0, 42\ndivu r2, r1, r0\nremu r3, r1, r0";
      "addi r1, r0, 99\nsw r1, 5(r0)\nlw r2, 5(r0)\nlb r3, 5(r0)";
      "addi r1, r0, 6\nmul r3, r1, r1\nsll r2, r1, r1";
      "addi r1, r0, 1\nbeq r1, r1, 12\naddi r2, r0, 1\naddi r3, r0, 2";
      "jal r1, 8\naddi r2, r0, 9\naddi r3, r0, 1";
      "addi r1, r0, 12\njalr r2, r1, 0\naddi r3, r0, 9\nxor r3, r3, r3";
    ]

let test_random_differential () =
  let rng = Random.State.make [| 909 |] in
  let straightline =
    List.filter
      (fun op ->
        match Isa.class_of op with Isa.Branch | Isa.Jump -> false | _ -> true)
      Isa.all_opcodes
  in
  for trial = 1 to 20 do
    let program =
      List.init
        (3 + Random.State.int rng 8)
        (fun _ ->
          Isa.make
            ~rd:(Random.State.int rng 4)
            ~rs1:(Random.State.int rng 4)
            ~rs2:(Random.State.int rng 4)
            ~imm:(Random.State.int rng 256)
            (List.nth straightline (Random.State.int rng (List.length straightline))))
    in
    let regs =
      Array.init 4 (fun i -> if i = 0 then Bitvec.zero 8 else Bitvec.random rng 8)
    in
    let core_regs, _, commits = run_ibex ~regs program in
    let st = Golden.create ~regs () in
    Golden.run st ~program ~max_steps:commits;
    for i = 0 to 3 do
      if not (Bitvec.equal (Golden.reg st i) core_regs.(i)) then
        Alcotest.failf "trial %d r%d: ibex=%s golden=%s prog=[%s]" trial i
          (Bitvec.to_hex_string core_regs.(i))
          (Bitvec.to_hex_string (Golden.reg st i))
          (String.concat "; " (List.map Isa.to_string program))
    done
  done

let test_div_timing_channel () =
  (* The only intrinsic timing channel: DIV latency tracks |dividend|. *)
  let commit_cycle r1 =
    let meta = Designs.Ibex.build () in
    let sim = Sim.create ~seed:3 meta.Meta.nl in
    List.iteri
      (fun i r ->
        Sim.poke_reg sim r (Bitvec.of_int ~width:8 (if i = 0 then r1 else 3)))
      meta.Meta.arf;
    let program =
      match Isa.assemble "divu r3, r1, r2" with Ok p -> p | Error e -> failwith e
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
  Alcotest.(check bool) "small dividend is faster" true
    (commit_cycle 2 < commit_cycle 200);
  (* ...whereas ALU latency is operand-independent by construction. *)
  let meta = Designs.Ibex.build () in
  Hdl.Netlist.validate meta.Meta.nl;
  Alcotest.(check int) "two uFSMs only" 2 (List.length meta.Meta.ufsms)

let suite =
  ( "ibex",
    [
      Alcotest.test_case "directed vs golden" `Quick test_directed;
      Alcotest.test_case "random differential" `Quick test_random_differential;
      Alcotest.test_case "div timing channel" `Quick test_div_timing_channel;
    ] )
