(* Known-bits µLint pass (A401–A406): runs the same abstract interpretation
   the prune and SAT-simplification clients use (Hdl.Absint) and reports
   logic the analysis proves degenerate in every reachable state — stuck
   signals, dead mux arms, foregone comparisons, truncated known-1 bits,
   never-toggling registers, and always-true enables.  Everything here is
   invariant-grade: a finding holds on every cycle of every execution from
   reset, not just on the cycles some testbench happened to visit. *)

module Meta = Designs.Meta
module N = Hdl.Netlist
module AI = Hdl.Absint
module D = Diagnostic

let node_name nl s =
  match (N.node nl s).N.name with
  | Some nm -> nm
  | None -> Printf.sprintf "n%d" s

(* Bit mask with positions [lo..hi] set, in a word of width [w]. *)
let range_mask ~w ~hi ~lo =
  let hi = min hi (w - 1) in
  if lo > hi then Bitvec.zero w
  else
    Bitvec.shift_left
      (Bitvec.zero_extend (Bitvec.ones (hi - lo + 1)) w)
      lo

let run (meta : Meta.t) =
  let nl = meta.Meta.nl in
  (* The analysis needs a validated netlist (acyclic combinational logic,
     connected registers).  µLint must degrade, not crash, on the broken
     netlists the structural pass exists to report — so bail out silently
     when validation rejects the design.  Any other exception is a bug and
     propagates. *)
  match N.validate nl with
  | exception Failure _ -> []
  | () ->
    let kb = AI.known_bits nl in
    let diags = ref [] in
    let emit ?signal ~code ~severity fmt =
      Printf.ksprintf
        (fun msg ->
          let signal_name = Option.map (node_name nl) signal in
          diags := D.make ?signal ?signal_name ~code ~severity msg :: !diags)
        fmt
    in
    let fact s = kb.(s) in
    let fully_known s =
      let kn, _ = fact s in
      Bitvec.is_ones kn
    in
    (* Structurally-constant nodes are the structural pass's business
       (constant folding); this pass only reports what needs the register
       fixpoint to see. *)
    let foldable = Hashtbl.create 16 in
    List.iter
      (fun s -> Hashtbl.replace foldable s ())
      (Hdl.Analysis.constant_foldable nl);
    let structurally_const s = Hashtbl.mem foldable s in
    N.iter_nodes nl (fun n ->
        let id = n.N.id in
        match n.N.kind with
        | N.Input | N.Const _ -> ()
        | N.Reg { next = None; _ } -> ()
        | N.Reg { init; enable; _ } ->
          (* A405: a register every reachable state agrees on — it never
             toggles, so its flop (and downstream logic) is dead weight. *)
          (if fully_known id then
             let _, v = fact id in
             match init with
             | N.Init_value _ ->
               emit ~signal:id ~code:"A405" ~severity:D.Info
                 "register %s never toggles: it is proven stuck at its \
                  reset value %s in every reachable state"
                 (node_name nl id)
                 (Bitvec.to_hex_string v)
             | N.Init_symbolic -> ());
          (* A406: an enable proven always-1 — the hold path is dead and
             the register behaves as if unconditionally clocked. *)
          (match enable with
          | Some e when (not (structurally_const e)) && fully_known e ->
            let _, ev = fact e in
            if Bitvec.is_ones ev then
              emit ~signal:id ~code:"A406" ~severity:D.Info
                "register %s has a redundant enable: %s is proven 1 in \
                 every reachable state"
                (node_name nl id) (node_name nl e)
          | _ -> ())
        | N.Mux { sel; _ } ->
          (* A402: a mux whose select is invariant — one arm is dead.  The
             structural pass already reports selects that are constants by
             construction; this fires only when the fixpoint is needed. *)
          if (not (structurally_const id)) && (not (structurally_const sel))
             && fully_known sel
          then begin
            let _, sv = fact sel in
            emit ~signal:id ~code:"A402" ~severity:D.Info
              "mux %s always selects its %s arm (select %s is proven %s): \
               the other arm is dead logic"
              (node_name nl id)
              (if Bitvec.is_zero sv then "false" else "true")
              (node_name nl sel)
              (if Bitvec.is_zero sv then "0" else "1")
          end
        | N.Op2 ((N.Eq | N.Ult | N.Slt), a, b) ->
          (* A403: a comparison whose outcome is foregone even though
             neither operand is structurally constant. *)
          if (not (structurally_const id)) && fully_known id then begin
            let a_const =
              match (N.node nl a).N.kind with N.Const _ -> true | _ -> false
            in
            let b_const =
              match (N.node nl b).N.kind with N.Const _ -> true | _ -> false
            in
            if not (a_const && b_const) then
              let _, v = fact id in
              emit ~signal:id ~code:"A403" ~severity:D.Info
                "comparison %s is proven always %s: its operands can never \
                 order the other way in any reachable state"
                (node_name nl id)
                (if Bitvec.is_zero v then "false" else "true")
          end
        | N.Extract { hi; lo; arg } ->
          (* A404: an extract that throws away bits proven 1 — usually a
             truncation the designer believed was lossless. *)
          let kn, v = fact arg in
          let w = N.width nl arg in
          let kept = range_mask ~w ~hi ~lo in
          let dropped_ones =
            Bitvec.logand (Bitvec.logand kn v) (Bitvec.lognot kept)
          in
          if not (Bitvec.is_zero dropped_ones) then
            emit ~signal:id ~code:"A404" ~severity:D.Info
              "extract %s[%d:%d] discards %d bit(s) of %s proven 1 in every \
               reachable state"
              (node_name nl arg) hi lo
              (Bitvec.popcount dropped_ones)
              (node_name nl arg)
        | N.Wire _ | N.Not _ | N.Op2 _ | N.Concat _ | N.ReduceOr _
        | N.ReduceAnd _ ->
          (* A401: a named combinational signal proven stuck at one value
             yet not foldable structurally — it only looks alive.  Limited
             to named signals: anonymous expression temporaries stuck via
             a stuck input just restate their source. *)
          if n.N.name <> None && (not (structurally_const id))
             && fully_known id
          then
            let _, v = fact id in
            emit ~signal:id ~code:"A401" ~severity:D.Info
              "signal %s is stuck at %s in every reachable state but is not \
               structurally constant"
              (node_name nl id)
              (Bitvec.to_hex_string v));
    List.rev !diags
