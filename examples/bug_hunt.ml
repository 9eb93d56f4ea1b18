(* The three CVA6 control-flow bugs of §VII-B2, reproduced on CVA6-lite and
   shown absent on the fixed variant:

   1. JALR never raises a misaligned-target exception;
   2. JAL enforces only 2-byte alignment (checks target bit 0, not 1:0);
   3. conditional branches raise the misaligned-target exception regardless
      of whether the branch is taken.

   The paper found these by inspecting synthesized µPATHs (JALR never
   progressing to scbExcp, branch exception independence from operands);
   here we exercise each divergence by directed simulation on both design
   variants.

   Run with: dune exec examples/bug_hunt.exe *)

(* Run [program] for 30 cycles on a fresh [cfg] core whose ARF entry [i]
   holds [arf i], calling [observe] on every cycle. *)
let run cfg ~seed ~arf program ~observe =
  let meta = Designs.Core.build cfg in
  let sim = Sim.create ~seed meta.Designs.Meta.nl in
  List.iteri
    (fun i r -> Sim.poke_reg sim r (Bitvec.of_int ~width:Isa.xlen (arf i)))
    meta.Designs.Meta.arf;
  let program =
    match Isa.assemble program with Ok p -> p | Error e -> failwith e
  in
  let sget n = Option.get (Hdl.Netlist.find_named meta.Designs.Meta.nl n) in
  Sim.run sim ~cycles:30 ~stimulus:(Designs.Stimulus.program meta program)
    ~observe:(fun sim _ -> observe sim sget)

let saw_exception cfg program arf1 =
  let excp = ref false in
  run cfg ~seed:5 ~arf:(fun i -> if i = 0 then arf1 else 0) program
    ~observe:(fun sim sget ->
      for i = 0 to 3 do
        if Bitvec.to_int (Sim.peek sim (sget (Printf.sprintf "scb%d_state" i))) = 4
        then excp := true
      done);
  !excp

let buggy = Designs.Core.baseline
let fixed = Designs.Core.all_fixed

let () =
  (* Bug 1: JALR to a 2-byte-misaligned target (r1 = 6, target 6+0: bits 1:0
     = 2'b10).  RISC-V requires an exception; buggy CVA6-lite is silent. *)
  let jalr_prog = "jalr r2, r1, 0" in
  let b1_buggy = saw_exception buggy jalr_prog 6 in
  let b1_fixed = saw_exception fixed jalr_prog 6 in
  Printf.printf "JALR to misaligned target: exception on buggy=%b fixed=%b\n"
    b1_buggy b1_fixed;
  assert ((not b1_buggy) && b1_fixed);

  (* Bug 2: JAL with target bits 1:0 = 2'b10 (imm = 2 from pc 0): buggy JAL
     checks only bit 0, so it misses this misalignment. *)
  let jal_prog = "jal r2, 2" in
  let b2_buggy = saw_exception buggy jal_prog 0 in
  let b2_fixed = saw_exception fixed jal_prog 0 in
  Printf.printf "JAL to 2-byte-aligned (4-byte-misaligned) target: buggy=%b fixed=%b\n"
    b2_buggy b2_fixed;
  assert ((not b2_buggy) && b2_fixed);
  (* ...but both variants catch a 1-byte-misaligned JAL target. *)
  let b2b_buggy = saw_exception buggy "jal r2, 1" 0 in
  assert b2b_buggy;

  (* Bug 3: a NOT-taken branch with a misaligned target.  RISC-V raises the
     exception only when the branch is taken; buggy CVA6-lite raises it
     regardless. *)
  let br_prog = "addi r1, r0, 1\nbeq r1, r0, 2" in
  (* r1=1 != r0 -> not taken; target pc*4+2 is misaligned *)
  let b3_buggy = saw_exception buggy br_prog 0 in
  let b3_fixed = saw_exception fixed br_prog 0 in
  Printf.printf "NOT-taken branch with misaligned target: buggy=%b fixed=%b\n"
    b3_buggy b3_fixed;
  assert (b3_buggy && not b3_fixed);

  (* Bug 4 (§VII-B2's SCB counter-width bug): the buggy scoreboard admits
     one fewer in-flight instruction.  Observe peak occupancy behind a slow
     divider. *)
  let peak_occupancy cfg =
    let peak = ref 0 in
    run cfg ~seed:8 ~arf:(fun i -> 200 + i)
      "divu r3, r1, r2\nadd r1, r2, r2\nsw r2, 0(r2)\nbeq r1, r0, 4\nsw r1, 1(r2)"
      ~observe:(fun sim sget ->
        peak := max !peak (Bitvec.to_int (Sim.peek sim (sget "scb_count"))));
    !peak
  in
  let p_buggy = peak_occupancy buggy and p_fixed = peak_occupancy fixed in
  Printf.printf "peak scoreboard occupancy: buggy=%d fixed=%d (4 entries)\n"
    p_buggy p_fixed;
  assert (p_buggy = 3 && p_fixed = 4);
  Printf.printf "\nall four CVA6-lite bugs reproduced and absent when fixed.\n"
