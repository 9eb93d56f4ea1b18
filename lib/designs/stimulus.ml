type t = Sim.t -> int -> unit

let find nl name =
  match Hdl.Netlist.find_named nl name with
  | Some s -> s
  | None -> failwith ("Stimulus: missing signal " ^ name)

(* The fetch protocol, found once per design: [drive sim instr] reads the
   fetch PC through its cone and pokes slot [k] with [instr (pc + k)]. *)
let fetch (meta : Meta.t) =
  let nl = meta.Meta.nl in
  let fetch_pc = find nl "fetch_pc" in
  let slots =
    match Hdl.Netlist.find_named nl Core.sig_if_instr_in0 with
    | Some in0 -> [| in0; find nl Core.sig_if_instr_in1 |]
    | None -> [| find nl "if_instr_in" |]
  in
  fun sim instr ->
    Sim.eval_cone sim fetch_pc;
    let pc = Bitvec.to_int (Sim.peek sim fetch_pc) in
    for k = 0 to Array.length slots - 1 do
      Sim.poke sim slots.(k) (instr (pc + k))
    done

let program meta prog =
  let drive = fetch meta in
  let words = Array.of_list (List.map Isa.encode prog) in
  let nop = Isa.encode Isa.nop in
  let instr pc = if pc < Array.length words then words.(pc) else nop in
  fun sim _cycle -> drive sim instr

(* The random program [core] and [ibex] share, from RNG seed [seed]. *)
let random ~seed ~pins ~rotate meta =
  let drive = fetch meta in
  let rng = Random.State.make [| seed |] in
  let memo = Hashtbl.create 16 in
  let rotation = ref [] in
  (* Keep PC-as-IID coherent within one episode: a slot keeps its random
     instruction across refetches. *)
  let instr pc =
    let pc = pc mod (1 lsl Isa.pc_bits) in
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
    drive sim instr

let core ?(pins = []) ?(rotate = []) meta = random ~seed:0x51e9 ~pins ~rotate meta
let ibex ?(pins = []) ?(rotate = []) meta = random ~seed:0x1be8 ~pins ~rotate meta

let cache ?(pins = []) (meta : Meta.t) =
  let nl = meta.Meta.nl in
  let rq_ctr = find nl "rq_ctr" in
  let req_instr = find nl Cache.sig_req_instr in
  let req_addr = find nl Cache.sig_req_addr in
  let req_data = find nl Cache.sig_req_data in
  let axi0 = find nl "axi_rdata0" in
  let axi1 = find nl "axi_rdata1" in
  let rng = Random.State.make [| 0xcac4e |] in
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

(* Defined after the generators, whose [None]s are options. *)
type kind = None | Core | Ibex | Cache

let kind_name = function
  | None -> "none"
  | Core -> "core"
  | Ibex -> "ibex"
  | Cache -> "cache"

let kind_of_string = function
  | "none" -> Some None
  | "core" -> Some Core
  | "ibex" -> Some Ibex
  | "cache" -> Some Cache
  | _ -> Option.None

type factory =
  pins:(int * Isa.t) list -> rotate:(int * Isa.t list) list -> Meta.t -> t

let of_kind : kind -> factory option = function
  | None -> Option.None
  | Core -> Some (fun ~pins ~rotate meta -> core ~pins ~rotate meta)
  | Ibex -> Some (fun ~pins ~rotate meta -> ibex ~pins ~rotate meta)
  | Cache -> Some (fun ~pins ~rotate:_ meta -> cache ~pins meta)
