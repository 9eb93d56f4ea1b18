let find nl name =
  match Hdl.Netlist.find_named nl name with
  | Some s -> s
  | None -> failwith ("Stimulus: missing signal " ^ name)

let core ?(pins = []) ?(rotate = []) ?(seed = 0x51e9) (meta : Meta.t) =
  let nl = meta.Meta.nl in
  let fetch_pc = find nl "fetch_pc" in
  let in0 = find nl Core.sig_if_instr_in0 in
  let in1 = find nl Core.sig_if_instr_in1 in
  let rng = Random.State.make [| seed |] in
  let memo = Hashtbl.create 16 in
  let rotation = ref [] in
  (* Keep PC-as-IID coherent within one episode: a slot keeps its random
     instruction across refetches. *)
  let pick pc =
    match List.assoc_opt pc !rotation with
    | Some i -> Isa.encode i
    | None -> (
      match List.assoc_opt pc pins with
      | Some i -> Isa.encode i
      | None -> (
        match Hashtbl.find_opt memo pc with
        | Some e -> e
        | None ->
          let e = Isa.encode (Isa.random rng) in
          Hashtbl.replace memo pc e;
          e))
  in
  fun sim cycle ->
    if cycle = 0 then begin
      Hashtbl.reset memo;
      (* Each episode pins every rotated slot to a fresh draw from its
         candidate list — used to place random transmitters (§V-C1). *)
      rotation :=
        List.map
          (fun (pc, cands) ->
            (pc, List.nth cands (Random.State.int rng (List.length cands))))
          rotate
    end;
    Sim.eval_cone sim fetch_pc;
    let pc = Bitvec.to_int (Sim.peek sim fetch_pc) in
    Sim.poke sim in0 (pick pc);
    Sim.poke sim in1 (pick ((pc + 1) mod (1 lsl Isa.pc_bits)))

let cache ?(pins = []) ?(seed = 0xcac4e) (meta : Meta.t) =
  let nl = meta.Meta.nl in
  let rq_ctr = find nl "rq_ctr" in
  let req_instr = find nl Cache.sig_req_instr in
  let req_addr = find nl Cache.sig_req_addr in
  let req_data = find nl Cache.sig_req_data in
  let axi0 = find nl "axi_rdata0" in
  let axi1 = find nl "axi_rdata1" in
  let rng = Random.State.make [| seed |] in
  let pick pc =
    match List.assoc_opt pc pins with
    | Some i -> Isa.encode i
    | None ->
      let op = if Random.State.bool rng then Isa.LW else Isa.SW in
      Isa.encode (Isa.make op)
  in
  fun sim _cycle ->
    Sim.eval_cone sim rq_ctr;
    let pc = Bitvec.to_int (Sim.peek sim rq_ctr) in
    Sim.poke sim req_instr (pick pc);
    Sim.poke sim req_addr (Bitvec.random rng Isa.xlen);
    Sim.poke sim req_data (Bitvec.random rng Isa.xlen);
    Sim.poke sim axi0 (Bitvec.random rng Isa.xlen);
    Sim.poke sim axi1 (Bitvec.random rng Isa.xlen)

let ibex ?(pins = []) ?(rotate = []) ?(seed = 0x1be8) (meta : Meta.t) =
  let nl = meta.Meta.nl in
  let fetch_pc = find nl "fetch_pc" in
  let in0 = find nl "if_instr_in" in
  let rng = Random.State.make [| seed |] in
  let memo = Hashtbl.create 16 in
  let rotation = ref [] in
  let pick pc =
    match List.assoc_opt pc !rotation with
    | Some i -> Isa.encode i
    | None -> (
      match List.assoc_opt pc pins with
      | Some i -> Isa.encode i
      | None -> (
        match Hashtbl.find_opt memo pc with
        | Some e -> e
        | None ->
          let e = Isa.encode (Isa.random rng) in
          Hashtbl.replace memo pc e;
          e))
  in
  fun sim cycle ->
    if cycle = 0 then begin
      Hashtbl.reset memo;
      rotation :=
        List.map
          (fun (pc, cands) ->
            (pc, List.nth cands (Random.State.int rng (List.length cands))))
          rotate
    end;
    Sim.eval_cone sim fetch_pc;
    let pc = Bitvec.to_int (Sim.peek sim fetch_pc) in
    Sim.poke sim in0 (pick pc)
