(* Fig. 1: the zero-skip multiply channel on CVA6-MUL (§I-A).

   On the CVA6-MUL variant, a multiply occupies the multiplication unit for
   1 cycle when an operand is zero and 4 cycles otherwise — an
   operand-dependent µPATH difference that a receiver can time.  This
   example measures the two latencies, then synthesizes MUL's µPATHs and
   mulU occupancy classes with RTL2MµPATH, reproducing the structure of the
   paper's Fig. 1 (µPATH 0 vs µPATH 1).

   Run with: dune exec examples/zero_skip_mul.exe *)

let mul_latency ~zero_operand =
  let meta = Designs.Core.build Designs.Core.cva6_mul in
  let sim = Sim.create ~seed:3 meta.Designs.Meta.nl in
  List.iteri
    (fun i r ->
      Sim.poke_reg sim r
        (Bitvec.of_int ~width:Isa.xlen
           (if i = 0 then if zero_operand then 0 else 5 else 7)))
    meta.Designs.Meta.arf;
  let program =
    match Isa.assemble "mul r3, r1, r2" with Ok p -> p | Error e -> failwith e
  in
  let commit_cycle = ref None in
  Sim.run sim ~cycles:30 ~stimulus:(Designs.Stimulus.program meta program)
    ~observe:(fun sim c ->
      if
        Sim.peek_bool sim meta.Designs.Meta.commit
        && Bitvec.to_int (Sim.peek sim meta.Designs.Meta.commit_pc) = 0
        && !commit_cycle = None
      then commit_cycle := Some c);
  Option.get !commit_cycle

let () =
  let fast = mul_latency ~zero_operand:true in
  let slow = mul_latency ~zero_operand:false in
  Printf.printf "MUL commit cycle with a zero operand   : %d\n" fast;
  Printf.printf "MUL commit cycle with nonzero operands : %d\n" slow;
  assert (slow - fast = 3);
  Printf.printf
    "=> uPATH 0 spends 1 cycle in mulU, uPATH 1 spends 4 (Fig. 1's shape).\n\n";

  let meta = Designs.Core.build Designs.Core.cva6_mul in
  let iuv = Isa.make ~rd:3 ~rs1:1 ~rs2:2 Isa.MUL in
  let stim = Designs.Stimulus.core ~pins:[ (Designs.Core.iuv_pc, iuv) ] meta in
  let config =
    { Mc.Checker.default_config with bmc_depth = 14; sim_episodes = 10; sim_cycles = 40 }
  in
  Printf.printf "synthesizing MUL uPATHs on cva6_mul...\n%!";
  let r =
    Mupath.Synth.run ~config ~stimulus:stim ~revisit_count_labels:[ "mulU" ]
      ~meta ~iuv ~iuv_pc:Designs.Core.iuv_pc ()
  in
  Format.printf "%a@." Mupath.Synth.pp_result r;
  let mulu_counts = List.assoc "mulU" r.Mupath.Synth.revisit_counts in
  Printf.printf "mulU occupancy classes: %s (paper: 1 vs 4)\n"
    (String.concat ", " (List.map string_of_int mulu_counts));
  assert (List.mem 1 mulu_counts && List.mem 4 mulu_counts)
