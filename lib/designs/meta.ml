type ufsm = {
  ufsm_name : string;
  pcr : Hdl.Netlist.signal;
  vars : Hdl.Netlist.signal list;
  idle_states : Bitvec.t list;
  state_labels : (Bitvec.t * string) list;
}

type ifr_slot = {
  ifr_valid : Hdl.Netlist.signal;
  ifr_pc : Hdl.Netlist.signal;
  ifr_word : Hdl.Netlist.signal;
}

type t = {
  design_name : string;
  nl : Hdl.Netlist.t;
  ifrs : ifr_slot list;
  operand_stage_valid : Hdl.Netlist.signal;
  operand_stage_pc : Hdl.Netlist.signal;
  commit : Hdl.Netlist.signal;
  commit_pc : Hdl.Netlist.signal;
  flush : Hdl.Netlist.signal;
  ufsms : ufsm list;
  operand_regs : (string * Hdl.Netlist.signal) list;
  arf : Hdl.Netlist.signal list;
  amem : Hdl.Netlist.signal list;
  extra_assumes : Hdl.Netlist.signal list;
}

let ufsm_state_width t u =
  List.fold_left (fun acc v -> acc + Hdl.Netlist.width t.nl v) 0 u.vars

let state_value _t u v =
  match List.find_opt (fun (s, _) -> Bitvec.equal s v) u.state_labels with
  | Some (_, l) -> l
  | None -> Printf.sprintf "%s_s%s" u.ufsm_name (Bitvec.to_hex_string v)

let occupied t sim =
  List.filter_map
    (fun u ->
      let state =
        match u.vars with
        | [] -> Bitvec.zero 1
        | v :: rest ->
          List.fold_left
            (fun acc v -> Bitvec.concat acc (Sim.peek sim v))
            (Sim.peek sim v) rest
      in
      if List.exists (Bitvec.equal state) u.idle_states then None
      else Some (u, state))
    t.ufsms

let all_state_valuations t u =
  let w = ufsm_state_width t u in
  List.init (1 lsl w) (fun i -> Bitvec.of_int ~width:w i)

let signals t =
  let ufsm u = (u.pcr :: u.vars) in
  List.sort_uniq compare
    (List.concat_map (fun s -> [ s.ifr_valid; s.ifr_pc; s.ifr_word ]) t.ifrs
    @ [ t.operand_stage_valid; t.operand_stage_pc; t.commit; t.commit_pc; t.flush ]
    @ List.concat_map ufsm t.ufsms
    @ List.map snd t.operand_regs
    @ t.arf @ t.amem @ t.extra_assumes)

let count_pcrs t = List.length t.ufsms

let count_ufsm_state_regs t =
  List.fold_left (fun acc u -> acc + List.length u.vars) 0 t.ufsms
