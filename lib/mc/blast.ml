module Netlist = Hdl.Netlist
module Solver = Sat.Solver

type t = {
  nl : Netlist.t;
  order : Netlist.signal array;
  s : Solver.t;
  initial : [ `Reset | `Free ];
  assumes : Netlist.signal list;
  assume_initial : Netlist.signal list;
  true_lit : Solver.lit;
  false_lit : Solver.lit;
  mutable steps : Solver.lit array array list; (* reversed: per time, per node, lit array *)
  mutable depth : int;
  known : (Bitvec.t * Bitvec.t) array option;
      (* Known-bits invariants ([Hdl.Absint.known_bits] of [nl]): proven
         bits encode as the true/false literal instead of fresh variables,
         and constant folding in the gate helpers shrinks everything
         downstream.  Sound under [`Reset] because the facts hold in every
         reachable state; sound under [`Free] because the fixpoint is an
         inductive invariant (closed under the abstract transfer from any
         conforming state), so substituting its constant bits restricts
         the free states exactly to the invariant — standard strengthening
         for relative induction.  Under [`Reset] the substitution is
         subsumed by per-step constant folding of the reset values (it
         never changes the encoding); the [`Free] unrolling is where it
         shrinks the CNF. *)
  cse : bool;
  cse_tbl : (int * int * int, Solver.lit) Hashtbl.t;
      (* Structural hashing of gate outputs, keyed on (gate tag, operand
         literals).  Constant folding runs first, so keys never contain the
         true/false literal; all cached gates are permanent level-0
         definitions, so entries stay valid for the lifetime of [t]. *)
  mutable cse_hits : int;
  mutable cse_lookups : int;
}

let solver t = t.s
let depth t = t.depth
let lit_true t = t.true_lit
let cse_stats t = (t.cse_hits, t.cse_lookups)

(* --- gate helpers ------------------------------------------------------ *)

let fresh t = Solver.pos (Solver.new_var t.s)

let g_and t a b =
  if a = t.false_lit || b = t.false_lit then t.false_lit
  else if a = t.true_lit then b
  else if b = t.true_lit then a
  else if a = b then a
  else if a = Solver.negate b then t.false_lit
  else begin
    let key = (0, min a b, max a b) in
    let cached =
      if t.cse then begin
        t.cse_lookups <- t.cse_lookups + 1;
        Hashtbl.find_opt t.cse_tbl key
      end
      else None
    in
    match cached with
    | Some z ->
      t.cse_hits <- t.cse_hits + 1;
      z
    | None ->
      let z = fresh t in
      Solver.add_clause t.s [ Solver.negate z; a ];
      Solver.add_clause t.s [ Solver.negate z; b ];
      Solver.add_clause t.s [ z; Solver.negate a; Solver.negate b ];
      if t.cse then Hashtbl.replace t.cse_tbl key z;
      z
  end

let g_or t a b = Solver.negate (g_and t (Solver.negate a) (Solver.negate b))

let g_xor t a b =
  if a = t.false_lit then b
  else if b = t.false_lit then a
  else if a = t.true_lit then Solver.negate b
  else if b = t.true_lit then Solver.negate a
  else if a = b then t.false_lit
  else if a = Solver.negate b then t.true_lit
  else begin
    (* XOR is invariant under sign normalization: a^b = (a0^b0) ^ parity,
       where a0/b0 strip the sign bits.  Cache the positive form once and
       re-sign the cached output, so all four polarity variants of the same
       gate collapse into one definition. *)
    let sign = (a land 1) lxor (b land 1) in
    let a0 = a land lnot 1 and b0 = b land lnot 1 in
    let key = (1, min a0 b0, max a0 b0) in
    let cached =
      if t.cse then begin
        t.cse_lookups <- t.cse_lookups + 1;
        Hashtbl.find_opt t.cse_tbl key
      end
      else None
    in
    match cached with
    | Some z0 ->
      t.cse_hits <- t.cse_hits + 1;
      z0 lxor sign
    | None ->
      let z = fresh t in
      Solver.add_clause t.s [ Solver.negate z; a; b ];
      Solver.add_clause t.s [ Solver.negate z; Solver.negate a; Solver.negate b ];
      Solver.add_clause t.s [ z; Solver.negate a; b ];
      Solver.add_clause t.s [ z; a; Solver.negate b ];
      if t.cse then Hashtbl.replace t.cse_tbl key (z lxor sign);
      z
  end

let g_mux t sel a b =
  (* sel=1 -> a, sel=0 -> b *)
  if sel = t.true_lit then a
  else if sel = t.false_lit then b
  else if a = b then a
  else g_or t (g_and t sel a) (g_and t (Solver.negate sel) b)

let g_and_reduce t lits = Array.fold_left (g_and t) t.true_lit lits
let g_or_reduce t lits = Array.fold_left (g_or t) t.false_lit lits

(* Full adder: returns (sum, carry). *)
let g_fulladd t a b c =
  let s1 = g_xor t a b in
  let sum = g_xor t s1 c in
  let carry = g_or t (g_and t a b) (g_and t c s1) in
  (sum, carry)

let g_adder t ?(cin = None) a_bits b_bits =
  let n = Array.length a_bits in
  let out = Array.make n t.false_lit in
  let carry = ref (match cin with Some c -> c | None -> t.false_lit) in
  for i = 0 to n - 1 do
    let s, c = g_fulladd t a_bits.(i) b_bits.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  out

(* Unsigned a < b via LSB-to-MSB fold: higher bits override lower ones. *)
let g_ult t a_bits b_bits =
  let n = Array.length a_bits in
  let r = ref t.false_lit in
  for i = 0 to n - 1 do
    let lt_i = g_and t (Solver.negate a_bits.(i)) b_bits.(i) in
    let eq_i = Solver.negate (g_xor t a_bits.(i) b_bits.(i)) in
    r := g_or t lt_i (g_and t eq_i !r)
  done;
  !r

let const_lits t v =
  Array.init (Bitvec.width v) (fun i ->
      if Bitvec.bit v i then t.true_lit else t.false_lit)

(* --- node encoding ------------------------------------------------------ *)

(* Proven-constant literals for a node, when every bit is known: the node
   encodes as constants and builds no gates at all. *)
let fully_known_lits t id =
  match t.known with
  | None -> None
  | Some kb ->
    let kn, v = kb.(id) in
    if Bitvec.is_ones kn then Some (const_lits t v) else None

(* Overlay the proven bits of a partially-known node onto its encoded
   literals (a fresh array: step literals are shared across nodes). *)
let overlay_known t id lits_arr =
  match t.known with
  | None -> lits_arr
  | Some kb ->
    let kn, v = kb.(id) in
    if Bitvec.is_zero kn then lits_arr
    else
      Array.mapi
        (fun i l ->
          if Bitvec.bit kn i then
            if Bitvec.bit v i then t.true_lit else t.false_lit
          else l)
        lits_arr

let encode_node_gates t step prev_step time id =
  let open Netlist in
  let n = node t.nl id in
  let w = n.width in
  let lits_of s = step.(s) in
  (match n.kind with
  | Input -> step.(id) <- Array.init w (fun _ -> fresh t)
  | Const v -> step.(id) <- const_lits t v
  | Reg { init; next; enable } ->
    if time = 0 then
      step.(id) <-
        (match (t.initial, init) with
        | `Reset, Init_value v -> const_lits t v
        | `Reset, Init_symbolic | `Free, _ -> Array.init w (fun _ -> fresh t))
    else begin
      let prev = Option.get prev_step in
      let nxt = prev.(Option.get next) in
      let cur = prev.(id) in
      step.(id) <-
        (match enable with
        | None -> nxt
        | Some en ->
          let e = prev.(en).(0) in
          Array.init w (fun i -> g_mux t e nxt.(i) cur.(i)))
    end
  | Wire { driver } -> step.(id) <- lits_of (Option.get driver)
  | Not a -> step.(id) <- Array.map Solver.negate (lits_of a)
  | Op2 (op, a, b) ->
    let la = lits_of a and lb = lits_of b in
    step.(id) <-
      (match op with
      | And -> Array.init w (fun i -> g_and t la.(i) lb.(i))
      | Or -> Array.init w (fun i -> g_or t la.(i) lb.(i))
      | Xor -> Array.init w (fun i -> g_xor t la.(i) lb.(i))
      | Add -> g_adder t la lb
      | Sub ->
        (* a - b = a + ~b + 1 *)
        g_adder t ~cin:(Some t.true_lit) la (Array.map Solver.negate lb)
      | Mul ->
        (* Shift-and-add over the operand width; result truncated to w. *)
        let wa = Array.length la in
        let acc = ref (Array.make wa t.false_lit) in
        for i = 0 to wa - 1 do
          (* partial product of a shifted by i, gated by b_i *)
          let pp =
            Array.init wa (fun j ->
                if j < i then t.false_lit else g_and t la.(j - i) lb.(i))
          in
          acc := g_adder t !acc pp
        done;
        !acc
      | Eq ->
        let eqs =
          Array.init (Array.length la) (fun i ->
              Solver.negate (g_xor t la.(i) lb.(i)))
        in
        [| g_and_reduce t eqs |]
      | Ult -> [| g_ult t la lb |]
      | Slt ->
        (* Flip sign bits, then unsigned compare. *)
        let flip l =
          let l = Array.copy l in
          let top = Array.length l - 1 in
          l.(top) <- Solver.negate l.(top);
          l
        in
        [| g_ult t (flip la) (flip lb) |])
  | Mux { sel; on_true; on_false } ->
    let s = (lits_of sel).(0) in
    let a = lits_of on_true and b = lits_of on_false in
    step.(id) <- Array.init w (fun i -> g_mux t s a.(i) b.(i))
  | Extract { hi = _; lo; arg } ->
    let l = lits_of arg in
    step.(id) <- Array.init w (fun i -> l.(lo + i))
  | Concat parts ->
    (* Head of the list is the most significant part. *)
    let rev = List.rev parts in
    let out = Array.make w t.false_lit in
    let pos = ref 0 in
    List.iter
      (fun p ->
        let l = lits_of p in
        Array.iteri (fun i li -> out.(!pos + i) <- li) l;
        pos := !pos + Array.length l)
      rev;
    step.(id) <- out
  | ReduceOr a -> step.(id) <- [| g_or_reduce t (lits_of a) |]
  | ReduceAnd a -> step.(id) <- [| g_and_reduce t (lits_of a) |]);
  match n.kind with
  | Input -> () (* inputs are free by definition: nothing is provable *)
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
  List.iter (fun a -> Solver.add_clause t.s [ step.(a).(0) ]) t.assumes;
  if time = 0 then
    List.iter (fun a -> Solver.add_clause t.s [ step.(a).(0) ]) t.assume_initial

let ensure_depth t k =
  while t.depth <= k do
    encode_step t
  done

let create ?(assume_initial = []) ?known ?(cse = true) ~initial ~assumes nl =
  Netlist.validate nl;
  let s = Solver.create () in
  let tv = Solver.pos (Solver.new_var s) in
  Solver.add_clause s [ tv ];
  let t =
    {
      nl;
      order = Netlist.comb_order nl;
      s;
      initial;
      assumes;
      assume_initial;
      true_lit = tv;
      false_lit = Solver.negate tv;
      steps = [];
      depth = 0;
      known;
      cse;
      cse_tbl = Hashtbl.create 1024;
      cse_hits = 0;
      cse_lookups = 0;
    }
  in
  List.iter
    (fun a ->
      if Netlist.width nl a <> 1 then invalid_arg "Blast.create: assume must be 1 bit")
    (assumes @ assume_initial);
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
    (fun i li -> if Solver.lit_value t.s li then v := Bitvec.set_bit !v i true)
    l;
  !v

let add_state_distinct ~gate t i j =
  let si = step_at t i and sj = step_at t j in
  let diffs = ref [] in
  Netlist.iter_nodes t.nl (fun n ->
      match n.Netlist.kind with
      | Netlist.Reg _ ->
        let a = si.(n.Netlist.id) and b = sj.(n.Netlist.id) in
        Array.iteri (fun k la -> diffs := g_xor t la b.(k) :: !diffs) a
      | _ -> ());
  Solver.add_clause t.s (Solver.negate gate :: !diffs)
