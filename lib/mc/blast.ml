module Netlist = Hdl.Netlist
module Solver = Sat.Solver
module Lits = Hdl.Lower.Lits

type t = {
  nl : Netlist.t;
  order : Netlist.signal array;
  g : Lits.t; (* the solver and its gate library *)
  initial : [ `Reset | `Free ];
  assumes : Netlist.signal list;
  mutable steps : Solver.lit array array list; (* reversed: per time, per node, lit array *)
  mutable depth : int;
  known : (Bitvec.t * Bitvec.t) array option;
      (* Known-bits invariants ([Hdl.Absint.known_bits] of [nl]): proven
         bits encode as the true/false literal instead of fresh variables,
         and constant folding in the gate library shrinks everything
         downstream.  Sound under [`Reset] because the facts hold in every
         reachable state; sound under [`Free] because the fixpoint is an
         inductive invariant (closed under the abstract transfer from any
         conforming state), so substituting its constant bits restricts
         the free states exactly to the invariant — standard strengthening
         for relative induction.  Under [`Reset] the substitution is
         subsumed by per-step constant folding of the reset values (it
         never changes the encoding); the [`Free] unrolling is where it
         shrinks the CNF. *)
}

let solver t = Lits.solver t.g
let depth t = t.depth
let cse_stats t = Lits.cse_stats t.g

(* --- node encoding ------------------------------------------------------ *)

(* Proven-constant literals for a node, when every bit is known: the node
   encodes as constants and builds no gates at all. *)
let fully_known_lits t id =
  match t.known with
  | None -> None
  | Some kb ->
    let kn, v = kb.(id) in
    if Bitvec.is_ones kn then Some (Lits.const t.g v) else None

(* Overlay the proven bits of a partially-known node onto its encoded
   literals (a fresh array: step literals are shared across nodes). *)
let overlay_known t id lits_arr =
  match t.known with
  | None -> lits_arr
  | Some kb ->
    let kn, v = kb.(id) in
    if Bitvec.is_zero kn then lits_arr
    else
      let tt = Lits.one t.g in
      Array.mapi
        (fun i l ->
          if Bitvec.bit kn i then if Bitvec.bit v i then tt else Solver.negate tt
          else l)
        lits_arr

(* Sources are this module's own: inputs are fresh at every step, and a
   register is its init at step 0 and its (enabled) next value after.
   Every other kind goes through the shared lowering. *)
let encode_node_gates t step prev_step time id =
  let n = Netlist.node t.nl id in
  let w = n.Netlist.width in
  (match n.Netlist.kind with
  | Netlist.Input -> step.(id) <- Array.init w (fun _ -> Lits.fresh t.g)
  | Netlist.Reg { init; next; enable } ->
    if time = 0 then
      step.(id) <-
        (match (t.initial, init) with
        | `Reset, Netlist.Init_value v -> Lits.const t.g v
        | `Reset, Netlist.Init_symbolic | `Free, _ ->
          Array.init w (fun _ -> Lits.fresh t.g))
    else begin
      let prev = Option.get prev_step in
      let nxt = prev.(Option.get next) in
      let cur = prev.(id) in
      step.(id) <-
        (match enable with
        | None -> nxt
        | Some en ->
          let e = prev.(en).(0) in
          Array.init w (fun i -> Lits.mux t.g e nxt.(i) cur.(i)))
    end
  | _ -> step.(id) <- Lits.node t.g (Array.get step) n);
  match n.Netlist.kind with
  | Netlist.Input -> () (* inputs are free by definition: nothing is provable *)
  | _ -> step.(id) <- overlay_known t id step.(id)

let encode_node t step prev_step time id =
  match fully_known_lits t id with
  | Some lits when (Netlist.node t.nl id).Netlist.kind <> Netlist.Input ->
    step.(id) <- lits
  | _ -> encode_node_gates t step prev_step time id

let encode_step t =
  let time = t.depth in
  let prev_step = match t.steps with [] -> None | s :: _ -> Some s in
  let step = Array.make (Netlist.num_nodes t.nl) [||] in
  Array.iter (fun id -> encode_node t step prev_step time id) t.order;
  t.steps <- step :: t.steps;
  t.depth <- t.depth + 1;
  (* Pin assumptions for this step. *)
  List.iter (fun a -> Solver.add_clause (solver t) [ step.(a).(0) ]) t.assumes

let ensure_depth t k =
  while t.depth <= k do
    encode_step t
  done

let create ?known ?cse ~initial ~assumes nl =
  Netlist.validate nl;
  let t =
    {
      nl;
      order = Netlist.comb_order nl;
      g = Lits.create ?cse (Solver.create ());
      initial;
      assumes;
      steps = [];
      depth = 0;
      known;
    }
  in
  List.iter
    (fun a ->
      if Netlist.width nl a <> 1 then invalid_arg "Blast.create: assume must be 1 bit")
    assumes;
  ensure_depth t 0;
  t

let step_at t time =
  if time < 0 || time >= t.depth then invalid_arg "Blast: step not encoded";
  List.nth t.steps (t.depth - 1 - time)

let lits t sig_ ~time = (step_at t time).(sig_)

let lit1 t sig_ ~time =
  let l = lits t sig_ ~time in
  if Array.length l <> 1 then invalid_arg "Blast.lit1: signal is not 1 bit";
  l.(0)

let model_value t sig_ ~time =
  let l = lits t sig_ ~time in
  let v = ref (Bitvec.zero (Array.length l)) in
  Array.iteri
    (fun i li -> if Solver.lit_value (solver t) li then v := Bitvec.set_bit !v i true)
    l;
  !v

let add_state_distinct ~gate t i j =
  let si = step_at t i and sj = step_at t j in
  let diffs = ref [] in
  Netlist.iter_nodes t.nl (fun n ->
      match n.Netlist.kind with
      | Netlist.Reg _ ->
        let a = si.(n.Netlist.id) and b = sj.(n.Netlist.id) in
        Array.iteri (fun k la -> diffs := Lits.xor t.g la b.(k) :: !diffs) a
      | _ -> ());
  Solver.add_clause (solver t) (Solver.negate gate :: !diffs)
