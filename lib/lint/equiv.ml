(* Equivalence µLint pass (E501–E503): SAT-sweep the netlist and report
   the proven redundancy — duplicate cones, complement pairs, and
   constants only a miter (not the known-bits fixpoint) can see.  See the
   interface for the pass contract. *)

module Meta = Designs.Meta
module N = Hdl.Netlist
module E = Hdl.Equiv
module D = Diagnostic

let node_name nl s =
  match (N.node nl s).N.name with
  | Some nm -> nm
  | None -> Printf.sprintf "n%d" s

(* "a, b, c and 4 more" — class listings must stay readable on the
   gate-level imports where one class can have hundreds of members. *)
let listing nl members =
  let names = List.map (fun (s, _) -> node_name nl s) members in
  let shown = List.filteri (fun i _ -> i < 4) names in
  let rest = List.length names - List.length shown in
  String.concat ", " shown
  ^ if rest > 0 then Printf.sprintf " and %d more" rest else ""

let run (meta : Meta.t) =
  let nl = meta.Meta.nl in
  match N.validate nl with
  | exception Failure _ -> []
  | () ->
    (* An annotation outside the netlist names no node to keep (the
       annotation pass reports it as L101). *)
    let barriers =
      List.filter (fun s -> s >= 0 && s < N.num_nodes nl) (Meta.signals meta)
    in
    let classes, _stats = E.analyze ~barriers nl in
    let diags = ref [] in
    let emit ?signal ~code fmt =
      Printf.ksprintf
        (fun msg ->
          let signal_name = Option.map (node_name nl) signal in
          diags := D.make ?signal ?signal_name ~code ~severity:D.Info msg :: !diags)
        fmt
    in
    (* Known-bits facts, to keep E503 disjoint from A401: only constants
       the dataflow fixpoint cannot prove are worth a second diagnostic. *)
    let kb = Hdl.Absint.known_bits nl in
    let kb_proves s v =
      let kn, kv = kb.(s) in
      Bitvec.is_ones kn && Bitvec.equal kv v
    in
    List.iter
      (fun (c : E.cls) ->
        match c.E.const_value with
        | Some v ->
          (* E503: sweep-proven constants.  Every member ties to the same
             value (complement members to its negation); report the ones
             known-bits misses. *)
          List.iter
            (fun (s, phase) ->
              let sv = if phase then Bitvec.lognot v else v in
              if not (kb_proves s sv) then
                emit ~signal:s ~code:"E503"
                  "%s is proven constant %s by SAT sweep, beyond the \
                   known-bits fixpoint — the cone is dead logic"
                  (node_name nl s) (Bitvec.to_hex_string sv))
            ((c.E.rep, false) :: c.E.members)
        | None ->
          let same, compl_ =
            List.partition (fun (_, phase) -> not phase) c.E.members
          in
          if same <> [] then
            emit ~signal:c.E.rep ~code:"E501"
              "duplicate logic cone: %s recomputes the same %d-bit word as \
               %s on every cycle"
              (listing nl same)
              (N.width nl c.E.rep)
              (node_name nl c.E.rep);
          if compl_ <> [] then
            emit ~signal:c.E.rep ~code:"E502"
              "complementary duplicate: %s is proven the negation of %s — \
               the pair collapses to one cone plus an inverter"
              (listing nl compl_) (node_name nl c.E.rep))
      classes;
    List.rev !diags
