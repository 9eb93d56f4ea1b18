(* Symbolic information-flow queries (§V-C1).

   For one transponder P and one (transmitter-kind, operand) pair, [analyze]
   builds a fresh copy of the design, instruments it with CellIFT-style
   taint logic whose single taint source is the chosen operand register while
   the transmitter's PC occupies the operand-read stage (Fig. 7), adds the
   transmitter-typing monitors (in-flight / gone) implementing Assumptions
   1/2a/2b/3, and then evaluates one cover property per (transmitter,
   decision): is there a trace where P exhibits decision (src, dst) one
   cycle after visiting src, with the destination µFSMs tainted? *)

module Netlist = Hdl.Netlist
module Meta = Designs.Meta
module Checker = Mc.Checker

type query_stats = {
  q_props : int;
  q_undetermined : int;
  q_pruned_static : int;
  q_pruned_absint : int;
}

type analysis = { tagged : Types.tagged_decision list; stats : query_stats }

(* Transmitter PC slots relative to the IUV (§V-C1, Fig. 7). *)
let transmitter_pc ~iuv_pc = function
  | Types.Intrinsic -> iuv_pc
  | Types.Dynamic_older -> iuv_pc - 1
  | Types.Dynamic_younger -> iuv_pc + 1
  | Types.Static -> iuv_pc - 2

let analyze ?cache ?config ?stimulus ?(precise = true) ?(prune = `On)
    ~(design : unit -> Meta.t) ~(transponder : Isa.t)
    ~(decisions : (string * string list list) list)
    ~(transmitters : Isa.opcode list) ~(kind : Types.transmitter_kind)
    ~(operand : Types.operand) ~iuv_pc () =
  Obs.with_span "flow.analyze"
    ~args:[ ("transponder", Isa.to_string transponder) ]
  @@ fun () ->
  let meta = design () in
  let nl = meta.Meta.nl in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let pcw = Netlist.width nl meta.Meta.commit_pc in
  let pc_t = transmitter_pc ~iuv_pc kind in
  let pc_t_c = of_int pcw pc_t in
  let or_all = List.fold_left ( |: ) gnd in

  (* --- transmitter-instance monitors --------------------------------- *)
  (* Latch the first instruction word fetched at the transmitter's PC and
     pin later refetches to it, so the transmitter's identity is stable. *)
  let slot_holds_t (s : Meta.ifr_slot) =
    s.Meta.ifr_valid &: (s.Meta.ifr_pc ==: pc_t_c)
  in
  let any_slot_t = or_all (List.map slot_holds_t meta.Meta.ifrs) in
  let slot_word =
    List.fold_left
      (fun acc (s : Meta.ifr_slot) -> mux (slot_holds_t s) s.Meta.ifr_word acc)
      (zero Isa.width) meta.Meta.ifrs
  in
  let t_word_valid = reg ~name:"tx_word_valid" ~width:1 () in
  let t_word = reg ~name:"tx_word" ~width:Isa.width () in
  let () =
    t_word_valid <== (t_word_valid |: any_slot_t);
    t_word <== mux (any_slot_t &: ~:t_word_valid) slot_word t_word
  in
  let t_word_stable =
    ~:(any_slot_t &: t_word_valid) |: (slot_word ==: t_word)
  in
  let t_op = select t_word 18 14 in
  let t_op_is =
    List.map (fun o -> (o, t_word_valid &: eq_const t_op (Isa.opcode_to_int o)))
      transmitters
  in

  (* Transmitter in-flight / gone tracking over the design's µFSMs. *)
  let groups = Mupath.Harness.pl_groups meta in
  let occ_t_of ((u : Meta.ufsm), state) =
    (concat u.Meta.vars ==: of_bv state) &: (u.Meta.pcr ==: pc_t_c)
  in
  let inflight_t =
    or_all (List.concat_map (fun (_, members) -> List.map occ_t_of members) groups)
  in
  let prev_inflight_t = reg ~name:"tx_prev_inflight" ~width:1 () in
  let () = prev_inflight_t <== inflight_t in
  let committed_t = reg ~name:"tx_committed" ~width:1 () in
  let () =
    committed_t
    <== (committed_t |: (meta.Meta.commit &: (meta.Meta.commit_pc ==: pc_t_c)))
  in
  let gone_t_now = committed_t &: ~:inflight_t in
  let gone_t = reg ~name:"tx_gone" ~width:1 () in
  let () = gone_t <== (gone_t |: gone_t_now) in
  let prev_gone_t = reg ~name:"tx_prev_gone" ~width:1 () in
  let () = prev_gone_t <== gone_t in
  let flush_pulse = gone_t_now &: ~:gone_t in

  (* --- taint instrumentation ------------------------------------------ *)
  let op_reg = List.assoc_opt (Types.operand_name operand) meta.Meta.operand_regs in
  let inject_cond =
    meta.Meta.operand_stage_valid &: (meta.Meta.operand_stage_pc ==: pc_t_c)
  in
  match op_reg with
  | None ->
    (* The design has no such operand register (e.g. a single-operand toy
       DUV): nothing can be tainted, nothing is tagged. *)
    {
      tagged = [];
      stats =
        { q_props = 0; q_undetermined = 0; q_pruned_static = 0; q_pruned_absint = 0 };
    }
  | Some op_reg ->
  let blocked = meta.Meta.arf @ meta.Meta.amem in

  (* --- static taint-flow pre-passes ------------------------------------- *)
  (* Over-approximate, on the un-instrumented netlist, which PL groups the
     operand's taint may ever reach.  A cover whose destination set lies
     entirely outside this cone (or is empty — [or_all [] = gnd]) asks the
     checker to reach a constant-false taint conjunct and is statically
     unreachable.  The known-bits refinement re-runs the pre-pass with the
     invariants from {!Hdl.Absint}: proven-constant selector and operand
     bits let the precise cell rules drop propagation edges the plain
     pre-pass keeps, so it proves more covers dead; it only counts covers
     the plain cone left alive.  [dst_live span masks_of] computes a cone
     under the span the layer timings read; unknown labels are live, so
     nothing is pruned on missing data. *)
  let dst_live span masks_of =
    let masks = Obs.with_span span masks_of in
    let label_live =
      List.map
        (fun (label, members) ->
          let m_live ((u : Meta.ufsm), _) =
            List.exists (Hdl.Analysis.taint_reaches masks) (u.Meta.pcr :: u.Meta.vars)
          in
          (label, List.exists m_live members))
        groups
    in
    List.exists (fun lbl -> Option.value (List.assoc_opt lbl label_live) ~default:true)
  in
  let static_live =
    dst_live "flow.static_taint" (fun () ->
        Hdl.Analysis.taint_reach ~precise ~blocked ~sources:[ op_reg ] nl)
  in
  let refined_live =
    dst_live "flow.absint_taint" (fun () ->
        let kb = Hdl.Absint.known_bits nl in
        Hdl.Analysis.taint_reach ~precise ~known:kb ~blocked ~sources:[ op_reg ] nl)
  in
  (* Persistent state for the sticky-taint flush of Assumption 3: every
     symbolically-initialized register that is not architectural (cache tag
     and data arrays in the cache DUV). *)
  let persistent =
    Netlist.fold_nodes nl ~init:[] ~f:(fun acc n ->
        match n.Netlist.kind with
        | Netlist.Reg { init = Netlist.Init_symbolic; _ }
          when not (List.mem n.Netlist.id blocked) ->
          n.Netlist.id :: acc
        | _ -> acc)
  in
  let flush = match kind with Types.Static -> Some flush_pulse | _ -> None in
  let ift =
    Ift.instrument ~precise
      ~inject:[ (op_reg, inject_cond) ]
      ~blocked ?flush ~persistent nl
  in

  (* Per-PL-group taint: any taint bit in a member µFSM's state variables or
     PCR. *)
  let group_taint =
    List.map
      (fun (label, members) ->
        let m_taint ((u : Meta.ufsm), _) =
          or_all (List.map (fun v -> Ift.any_taint ift v) (u.Meta.pcr :: u.Meta.vars))
        in
        (label, or_all (List.map m_taint members)))
      groups
  in
  (* One OR node per distinct destination set. *)
  let dst_sets =
    List.sort_uniq compare (List.concat_map (fun (_, ds) -> ds) decisions)
  in
  let dst_taints =
    List.map
      (fun ds -> (ds, or_all (List.map (fun lbl -> List.assoc lbl group_taint) ds)))
      dst_sets
  in

  (* --- IUV harness (checker) ------------------------------------------ *)
  let meta = { meta with Meta.extra_assumes = t_word_stable :: meta.Meta.extra_assumes } in
  (* Imprecise IFT changes what every cover means even if the instrumented
     netlist digest were to collide, so fold the mode into the verdict-cache
     namespace explicitly. *)
  let cache_salt = if precise then None else Some "|ift:imprecise" in
  let h =
    Mupath.Harness.create ?cache ?cache_salt ?config
      ?stimulus:(Option.map (fun f -> f meta) stimulus)
      ~meta ~iuv:transponder ~iuv_pc ()
  in
  let chk = Mupath.Harness.checker h in

  (* --- queries ---------------------------------------------------------- *)
  let iuv_labels = Mupath.Harness.labels h in
  let kind_lits =
    match kind with
    | Types.Intrinsic -> []
    | Types.Dynamic_older | Types.Dynamic_younger ->
      [ (prev_inflight_t, true) ]
    | Types.Static -> [ (prev_gone_t, true) ]
  in
  let covers =
    List.concat_map
      (fun tx ->
        (* Intrinsic transmitters can only be the transponder itself. *)
        if kind <> Types.Intrinsic || tx = transponder.Isa.op then
          let op_lit =
            if kind = Types.Intrinsic then []
            else [ (List.assoc tx t_op_is, true) ]
          in
          List.concat_map
            (fun (src, dsts) ->
              List.map
                (fun dst ->
                  let pattern =
                    List.map
                      (fun lbl -> (Mupath.Harness.occ_iuv h lbl, List.mem lbl dst))
                      iuv_labels
                  in
                  ( tx,
                    src,
                    dst,
                    ((Mupath.Harness.prev_occ_iuv h src, true) :: pattern)
                    @ [ (List.assoc dst dst_taints, true) ]
                    @ op_lit @ kind_lits ))
                dsts)
            decisions
        else [])
      transmitters
  in
  (* Statically-dead covers never enter the main stream, in either mode
     (see {!Mupath.Prune}). *)
  let static_dead, rest =
    List.partition (fun (_, _, dst, _) -> not (static_live dst)) covers
  in
  let absint_dead, live =
    List.partition (fun (_, _, dst, _) -> not (refined_live dst)) rest
  in
  let check = Checker.check_cover ~name:"ift" chk in
  let undetermined = ref 0 in
  let tagged =
    List.filter_map
      (fun (tx, src, dst, lits) ->
        match check lits with
        | Checker.Reachable _ ->
          Some
            {
              Types.src;
              dst;
              input = { Types.transmitter = tx; unsafe_operand = operand; kind };
            }
        | Checker.Undetermined ->
          incr undetermined;
          None
        | Checker.Unreachable _ -> None)
      live
  in
  let discharge abstraction dead =
    Mupath.Prune.discharge prune ~check
      (List.map
         (fun (tx, src, dst, lits) ->
           ( abstraction,
             Printf.sprintf "cover %s -> {%s} (%s, %s.%s)" src
               (String.concat ", " dst) (Types.kind_name kind) (Isa.mnemonic tx)
               (Types.operand_name operand),
             lits ))
         dead)
  in
  let q_pruned_static = discharge "static taint" static_dead in
  let q_pruned_absint = discharge "known-bits taint" absint_dead in
  if Obs.enabled () then begin
    Obs.Metrics.incr "flow.pruned_static" ~by:q_pruned_static;
    Obs.Metrics.incr "flow.pruned_absint" ~by:q_pruned_absint
  end;
  {
    tagged;
    stats =
      {
        q_props = List.length covers;
        q_undetermined = !undetermined;
        q_pruned_static;
        q_pruned_absint;
      };
  }
