(* The new ST_comSTB channel of §VII-A1, demonstrated at the value level:

   a COMMITTED store draining from the committed store buffer shares the
   single memory port with the load unit, and CVA6(-lite) prioritizes the
   younger load.  So *when a committed store's memory write lands* is a
   function of a younger load's address operand:

     - if the load's page offset matches a pending store, the load parks in
       ldStall and leaves the port alone -> the store drains immediately;
     - otherwise the load takes the port for its access -> the committed
       store's drain slips.

   The store has already committed: its execution time is over, yet its
   post-commit µPATH still varies with the *younger* instruction's operand.
   This is the channel the paper is first to report, and the basis of the
   new speculative-interference class (§VII-A1): a transient load — one
   squashed by an older excepting instruction — exerts the same port
   pressure, so a bound-to-squash instruction's operand reaches a receiver
   through an older, committed transponder.  (SynthLC establishes the
   transient/dynamic-younger typing via symbolic IFT in bench experiment
   E5; here we show the underlying port mechanics concretely.)

   Run with: dune exec examples/speculative_interference.exe *)

let second_store_drain ~ld_addr =
  let meta = Designs.Core.build Designs.Core.all_fixed in
  let nl = meta.Designs.Meta.nl in
  let sget n = Option.get (Hdl.Netlist.find_named nl n) in
  let sim = Sim.create ~seed:6 nl in
  (* r1 = first store's address (4), r3 = second store's address (8),
     r2 = the younger load's address — the secret-dependent operand. *)
  List.iteri
    (fun i r ->
      let v = match i with 0 -> 4 | 1 -> ld_addr | _ -> 8 in
      Sim.poke_reg sim r (Bitvec.of_int ~width:Isa.xlen v))
    meta.Designs.Meta.arf;
  let program =
    match Isa.assemble "sw r3, 0(r1)\nsw r1, 0(r3)\nlw r0, 0(r2)" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let drain = ref None in
  Sim.run sim ~cycles:40 ~stimulus:(Designs.Stimulus.program meta program)
    ~observe:(fun sim c ->
      (* watch the memory-request stage for the SECOND store (pc 1) *)
      if
        Sim.peek_bool sim (sget "mrq_v")
        && Bitvec.to_int (Sim.peek sim (sget "mrq_pc")) = 1
        && !drain = None
      then drain := Some c);
  Option.get !drain

let () =
  (* Load address 12 shares page offset 0 with the pending stores (parks in
     ldStall); address 13 does not (takes the port). *)
  let off_match = second_store_drain ~ld_addr:12 in
  let contend = second_store_drain ~ld_addr:13 in
  Printf.printf "committed SW's memory write lands at cycle:\n";
  Printf.printf "  younger LW offset-matches (parks in ldStall) : %d\n" off_match;
  Printf.printf "  younger LW contends for the memory port      : %d\n" contend;
  assert (contend > off_match);
  Printf.printf
    "\n=> the committed store's drain cycle is a function of the YOUNGER\n";
  Printf.printf
    "   load's address operand: dst ST_comSTB(SW^N, LW^D>.rs1) — the novel\n";
  Printf.printf "   channel of SS VII-A1, reproduced at the value level.\n";

  (* And the receiver-visible consequence per Definition V.1: make the
     load's address the secret and diff observation traces. *)
  let program =
    match Isa.assemble "sw r3, 0(r1)\nsw r1, 0(r3)\nlw r0, 0(r2)" with
    | Ok p -> p
    | Error e -> failwith e
  in
  match
    Synthlc.Scsafe.find_violation
      ~design:(fun () -> Designs.Core.build Designs.Core.all_fixed)
      ~program ~secret_reg:1 ()
  with
  | Some v ->
    Printf.printf
      "\nSC-Safe violated with r2 secret: 0x%s vs 0x%s diverge at cycle %d\n"
      (Bitvec.to_hex_string v.Synthlc.Scsafe.vi_low)
      (Bitvec.to_hex_string v.Synthlc.Scsafe.vi_high)
      v.Synthlc.Scsafe.vi_diverge_cycle
  | None -> Printf.printf "\n(no SC-Safe witness found in this trial budget)\n"
