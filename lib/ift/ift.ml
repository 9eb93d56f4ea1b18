module Netlist = Hdl.Netlist

type t = {
  nl : Netlist.t;
  taint : (Netlist.signal, Netlist.signal) Hashtbl.t;
}

let taint_of t s =
  match Hashtbl.find_opt t.taint s with
  | Some ts -> ts
  | None -> invalid_arg "Ift.taint_of: signal was created after instrumentation"

let any_taint t s = Netlist.reduce_or t.nl (taint_of t s)

let instrument ?(precise = true) ?(inject = []) ?(blocked = []) ?flush ?(persistent = []) nl =
  let open Netlist in
  let t = { nl; taint = Hashtbl.create 256 } in
  let shadows = Hashtbl.create 64 in
  let n0 = num_nodes nl in
  let original = List.init n0 (fun i -> i) in
  let order = comb_order nl in
  let zero w = const nl (Bitvec.zero w) in
  let ones w = const nl (Bitvec.ones w) in
  let tn s = Hashtbl.find t.taint s in

  (* Phase 1: shadow registers (so feedback taints resolve). *)
  List.iter
    (fun id ->
      match (node nl id).kind with
      | Reg { enable = Some _; _ } ->
        (* An enabled register holds on enable-0 cycles, which the shadow
           next-state logic of phase 3 does not model: instrumenting it
           would silently drop taint on every hold cycle.  Name the
           offender so the caller knows which annotation to fix. *)
        let name =
          match (node nl id).name with
          | Some nm -> nm
          | None -> Printf.sprintf "n%d" id
        in
        invalid_arg
          (Printf.sprintf
             "Ift.instrument: register %s has an enable (unsupported: taint \
              would be lost on hold cycles)"
             name)
      | Reg _ ->
        let w = width nl id in
        let name =
          match (node nl id).name with
          | Some nm -> nm ^ "_taint"
          | None -> Printf.sprintf "n%d_taint" id
        in
        let sh = reg nl ~name ~init:(Init_value (Bitvec.zero w)) ~width:w () in
        Hashtbl.replace shadows id sh;
        Hashtbl.replace t.taint id sh
      | _ -> ())
    original;

  (* Injected registers must read as tainted during the very cycle the
     injection condition holds (the operand is consumed that cycle), so
     their visible taint is shadow | replicate(cond). *)
  List.iter
    (fun (r, cond) ->
      let w = width nl r in
      let sh = Hashtbl.find shadows r in
      let now = mux nl ~sel:cond ~on_true:(ones w) ~on_false:(zero w) in
      Hashtbl.replace t.taint r (op2 nl Or sh now))
    inject;

  (* Phase 2: combinational taint in dependency order, by the cell rules
     of [Hdl.Taint] with every taint word a shadow signal built here. *)
  let module Rules = Hdl.Taint.Make (struct
    type t = signal

    let logor = op2 nl Or
    let logand = op2 nl And
    let any = reduce_or nl
    let replicate b w = if w = 1 then b else concat nl (List.init w (fun _ -> b))
    let extract = extract nl
    let concat = concat nl
    let may_be_one s = s
    let may_be_zero = not_ nl
    let may_differ = op2 nl Xor
    let choose ~sel a b = mux nl ~sel ~on_true:a ~on_false:b
  end) in
  Array.iter
    (fun id ->
      if id < n0 && not (Hashtbl.mem t.taint id) then begin
        let w = width nl id in
        let kind = (node nl id).kind in
        let ts =
          match Rules.comb ~precise ~width:w tn kind with
          | Some ts -> ts
          | None -> (
            match kind with
            | Wire _ -> failwith "Ift.instrument: unconnected wire"
            | _ -> zero w (* inputs and constants; registers read their shadows *))
        in
        Hashtbl.replace t.taint id ts
      end)
    order;

  (* Phase 3: connect shadow-register next-state logic. *)
  let blocked_tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace blocked_tbl s ()) blocked;
  let persistent_tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace persistent_tbl s ()) persistent;
  let inject_tbl = Hashtbl.create 8 in
  List.iter (fun (r, c) -> Hashtbl.replace inject_tbl r c) inject;
  List.iter
    (fun id ->
      match (node nl id).kind with
      | Reg { next = Some nxt; _ } ->
        let w = width nl id in
        let sh = Hashtbl.find shadows id in
        let propagated = tn nxt in
        let base =
          if Hashtbl.mem blocked_tbl id then zero w
          else
            match flush with
            | Some f when not (Hashtbl.mem persistent_tbl id) ->
              mux nl ~sel:f ~on_true:(zero w) ~on_false:propagated
            | _ -> propagated
        in
        let final =
          match Hashtbl.find_opt inject_tbl id with
          | Some cond -> mux nl ~sel:cond ~on_true:(ones w) ~on_false:base
          | None -> base
        in
        connect_reg nl sh final
      | Reg { next = None; _ } -> failwith "Ift.instrument: unconnected register"
      | _ -> ())
    original;
  t
