(* Quickstart: build the CVA6-lite core, run a program on the cycle-accurate
   simulator, watch performing-location occupancy (a concrete µPATH), and
   synthesize the formally verified µPATH set for one instruction.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Elaborate the design; [meta] carries the §V-A annotations. *)
  let meta = Designs.Core.build Designs.Core.baseline in
  let nl = meta.Designs.Meta.nl in
  Printf.printf "design %s: %d netlist nodes, %d registers, %d uFSMs\n"
    meta.Designs.Meta.design_name (Hdl.Netlist.num_nodes nl)
    (List.length (Hdl.Netlist.registers nl))
    (List.length meta.Designs.Meta.ufsms);

  (* 2. Assemble and simulate a small program. *)
  let program =
    match
      Isa.assemble
        "addi r1, r0, 6\naddi r2, r0, 7\nmul r3, r1, r2\nsw r3, 1(r0)\nlw r2, 1(r0)"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let sim = Sim.create ~seed:42 nl in
  let sget n = Option.get (Hdl.Netlist.find_named nl n) in
  Printf.printf "\ncycle-by-cycle PL occupancy (instruction PCs in brackets):\n";
  Sim.run sim ~cycles:20 ~stimulus:(Designs.Stimulus.program meta program)
    ~observe:(fun sim c ->
      let cells =
        List.map
          (fun ((u : Designs.Meta.ufsm), state) ->
            Printf.sprintf "%s[%d]"
              (Designs.Meta.state_value meta u state)
              (Bitvec.to_int (Sim.peek sim u.Designs.Meta.pcr)))
          (Designs.Meta.occupied meta sim)
      in
      Printf.printf "  c%02d: %s\n" c (String.concat " " cells));
  Sim.eval sim;
  Printf.printf "\nr3 = %d (expect 42), mem[1] = %d\n"
    (Bitvec.to_int (Sim.peek sim (sget "arf3")))
    (Bitvec.to_int (Sim.peek sim (sget "mem1")));

  (* 3. Synthesize the µPATH set for an ADD (fresh design instance: the
     harness instruments the netlist). *)
  let meta = Designs.Core.build Designs.Core.baseline in
  let iuv = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD in
  let stim = Designs.Stimulus.core ~pins:[ (Designs.Core.iuv_pc, iuv) ] meta in
  let config =
    { Mc.Checker.default_config with bmc_depth = 12; sim_episodes = 6; sim_cycles = 36 }
  in
  Printf.printf "\nsynthesizing uPATHs for `%s` (a minute or two)...\n%!"
    (Isa.to_string iuv);
  let r =
    Mupath.Synth.run ~config ~stimulus:stim ~meta ~iuv
      ~iuv_pc:Designs.Core.iuv_pc ()
  in
  Format.printf "%a@." Mupath.Synth.pp_result r;
  (* 4. Render the µPATHs as DOT for graphviz. *)
  List.iteri
    (fun i dot ->
      Printf.printf "uPATH %d as DOT (%d bytes) -- pipe to `dot -Tpng`\n" i
        (String.length dot))
    (Mupath.Synth.to_dot r)
