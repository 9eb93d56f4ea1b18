(* The §IV-A store-to-load stalling channel, demonstrated three ways:

   1. timing: a load's latency depends on whether its page offset matches an
      older pending store's — i.e. on the *store's address operand*;
   2. SC-Safe (Def. V.1): two executions that agree on everything public but
      differ in the store's address produce different observation traces;
   3. µPATH synthesis: the load exhibits distinct µPATHs (ldStall vs not).

   Run with: dune exec examples/store_to_load.exe *)

let run_load_latency store_addr =
  let meta = Designs.Core.build Designs.Core.baseline in
  let sim = Sim.create ~seed:9 meta.Designs.Meta.nl in
  (* r1 = store address (the secret), r2 = load address (public). *)
  List.iteri
    (fun i r ->
      Sim.poke_reg sim r
        (Bitvec.of_int ~width:Isa.xlen (if i = 0 then store_addr else 4)))
    meta.Designs.Meta.arf;
  let program =
    match Isa.assemble "sw r3, 0(r1)\nsw r3, 0(r1)\nlw r3, 0(r2)" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let load_commit = ref None in
  Sim.run sim ~cycles:40 ~stimulus:(Designs.Stimulus.program meta program)
    ~observe:(fun sim c ->
      if
        Sim.peek_bool sim meta.Designs.Meta.commit
        && Bitvec.to_int (Sim.peek sim meta.Designs.Meta.commit_pc) = 2
        && !load_commit = None
      then load_commit := Some c);
  !load_commit

let () =
  (* 1. Timing difference: store address 4 shares the load's page offset
     (addr mod 4); store address 5 does not. *)
  let t_match = run_load_latency 4 in
  let t_clear = run_load_latency 5 in
  Printf.printf "load commit cycle, store offset matches : %s\n"
    (match t_match with Some c -> string_of_int c | None -> "never");
  Printf.printf "load commit cycle, store offset differs : %s\n"
    (match t_clear with Some c -> string_of_int c | None -> "never");
  assert (t_match <> t_clear);
  Printf.printf "=> the LOAD's latency leaks the STORE's address operand.\n\n";

  (* 2. SC-Safe violation per Definition V.1: secret = r1 (the store's
     address register). *)
  let program =
    match Isa.assemble "sw r3, 0(r1)\nsw r3, 0(r1)\nlw r3, 0(r2)" with
    | Ok p -> p
    | Error e -> failwith e
  in
  (match
     Synthlc.Scsafe.find_violation
       ~design:(fun () -> Designs.Core.build Designs.Core.baseline)
       ~program ~secret_reg:0 ()
   with
  | Some v ->
    Printf.printf
      "SC-Safe violated: secret r1 = %s vs %s diverges the observation trace at cycle %d\n\n"
      (Bitvec.to_hex_string v.Synthlc.Scsafe.vi_low)
      (Bitvec.to_hex_string v.Synthlc.Scsafe.vi_high)
      v.Synthlc.Scsafe.vi_diverge_cycle
  | None -> Printf.printf "no SC-Safe violation found (unexpected)\n\n");

  (* 3. µPATH variability for the load. *)
  let meta = Designs.Core.build Designs.Core.baseline in
  let iuv = Isa.make ~rd:3 ~rs1:2 Isa.LW in
  let stim =
    Designs.Stimulus.core
      ~pins:
        [
          (Designs.Core.iuv_pc, iuv);
          (Designs.Core.iuv_pc - 1, Isa.make ~rs1:1 ~rs2:3 Isa.SW);
        ]
      meta
  in
  let config =
    { Mc.Checker.default_config with bmc_depth = 14; sim_episodes = 10; sim_cycles = 40 }
  in
  Printf.printf "synthesizing uPATHs for `%s` behind a store...\n%!"
    (Isa.to_string iuv);
  let r =
    Mupath.Synth.run ~config ~stimulus:stim ~meta ~iuv
      ~iuv_pc:Designs.Core.iuv_pc ()
  in
  Format.printf "%a@." Mupath.Synth.pp_result r;
  let stall_path =
    List.exists
      (fun p -> List.mem_assoc "ldStall" p.Mupath.Synth.pl_set)
      r.Mupath.Synth.paths
  in
  let fast_path =
    List.exists
      (fun p -> not (List.mem_assoc "ldStall" p.Mupath.Synth.pl_set))
      r.Mupath.Synth.paths
  in
  Printf.printf "stall uPATH found: %b; stall-free uPATH found: %b\n" stall_path
    fast_path
