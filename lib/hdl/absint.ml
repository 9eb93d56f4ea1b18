(* Known-bits abstract interpretation over the word-level netlist IR.

   Each signal is abstracted by a pair [(known, value)] of equal-width
   bit-vectors: bit [i] of [known] set means bit [i] of the signal is proven
   constant — equal to bit [i] of [value] — in every reachable state from
   reset, at every cycle.  Unknown bits of [value] are normalized to zero so
   structural equality on facts coincides with lattice equality.

   The analysis is a forward dataflow: one combinational sweep in
   [Netlist.comb_order] evaluates the transfer function of every cell, then
   each register joins the abstract value of its next-state input into its
   own fact (respecting enables).  Register facts only lose known bits, so
   the register-step fixpoint terminates in at most (total register bits)
   rounds.  Reset seeding: [Init_value v] registers start fully known at
   [v]; [Init_symbolic] registers and primary inputs are unconstrained. *)

module N = Netlist

type fact = { known : Bitvec.t; value : Bitvec.t }

let top w = { known = Bitvec.zero w; value = Bitvec.zero w }
let exact v = { known = Bitvec.ones (Bitvec.width v); value = v }
let norm ~known ~value = { known; value = Bitvec.logand value known }
let is_exact f = Bitvec.is_ones f.known

let fact_equal a b =
  Bitvec.equal a.known b.known && Bitvec.equal a.value b.value

(* Least upper bound: a bit stays known only if both sides know it and
   agree on it. *)
let join a b =
  let agree = Bitvec.lognot (Bitvec.logxor a.value b.value) in
  let known = Bitvec.logand (Bitvec.logand a.known b.known) agree in
  norm ~known ~value:a.value

(* {1 Transfer functions} *)

let not_f a =
  norm ~known:a.known ~value:(Bitvec.lognot a.value)

(* A result bit of AND is known if both inputs are known, or either input
   is known zero. *)
let and_f a b =
  let kz_a = Bitvec.logand a.known (Bitvec.lognot a.value) in
  let kz_b = Bitvec.logand b.known (Bitvec.lognot b.value) in
  let known = Bitvec.logor (Bitvec.logand a.known b.known) (Bitvec.logor kz_a kz_b) in
  norm ~known ~value:(Bitvec.logand a.value b.value)

(* Dual: known if both known, or either is known one. *)
let or_f a b =
  let k1_a = Bitvec.logand a.known a.value in
  let k1_b = Bitvec.logand b.known b.value in
  let known = Bitvec.logor (Bitvec.logand a.known b.known) (Bitvec.logor k1_a k1_b) in
  norm ~known ~value:(Bitvec.logor a.value b.value)

let xor_f a b =
  let known = Bitvec.logand a.known b.known in
  norm ~known ~value:(Bitvec.logxor a.value b.value)

(* Number of contiguous low bits known in both operands: carries propagate
   strictly upward, so that many low result bits of add/sub/mul are
   determined by the (masked) operand values alone. *)
let trailing_known a b =
  let w = Bitvec.width a.known in
  let t = ref 0 in
  while !t < w && Bitvec.bit a.known !t && Bitvec.bit b.known !t do incr t done;
  !t

let low_mask w t =
  if t = 0 then Bitvec.zero w
  else if t >= w then Bitvec.ones w
  else Bitvec.shift_right_logical (Bitvec.ones w) (w - t)

let carry_chain_f op a b =
  if is_exact a && is_exact b then exact (op a.value b.value)
  else
    let w = Bitvec.width a.known in
    let known = low_mask w (trailing_known a b) in
    norm ~known ~value:(op a.value b.value)

(* Unsigned interval from a fact: the value with unknown bits cleared is
   the minimum, with unknown bits set the maximum. *)
let min_of f = f.value
let max_of f = Bitvec.logor f.value (Bitvec.lognot f.known)

let eq_f a b =
  let disagree = Bitvec.logand (Bitvec.logand a.known b.known) (Bitvec.logxor a.value b.value) in
  if not (Bitvec.is_zero disagree) then exact (Bitvec.of_bool false)
  else if is_exact a && is_exact b then exact (Bitvec.of_bool true)
  else top 1

let ult_f a b =
  if Bitvec.ult (max_of a) (min_of b) then exact (Bitvec.of_bool true)
  else if not (Bitvec.ult (min_of a) (max_of b)) then exact (Bitvec.of_bool false)
  else top 1

let slt_f a b =
  if is_exact a && is_exact b then exact (Bitvec.of_bool (Bitvec.slt a.value b.value))
  else top 1

let op2_f op a b =
  match (op : N.op2) with
  | N.And -> and_f a b
  | N.Or -> or_f a b
  | N.Xor -> xor_f a b
  | N.Add -> carry_chain_f Bitvec.add a b
  | N.Sub -> carry_chain_f Bitvec.sub a b
  | N.Mul -> carry_chain_f Bitvec.mul a b
  | N.Eq -> eq_f a b
  | N.Ult -> ult_f a b
  | N.Slt -> slt_f a b

(* Mux semantics mirror the simulator: any nonzero select takes [on_true],
   so a single known-one select bit suffices to kill the false arm. *)
let mux_f sel t f =
  if not (Bitvec.is_zero (Bitvec.logand sel.known sel.value)) then t
  else if is_exact sel && Bitvec.is_zero sel.value then f
  else join t f

let extract_f ~hi ~lo a =
  { known = Bitvec.extract a.known ~hi ~lo; value = Bitvec.extract a.value ~hi ~lo }

let concat_f parts =
  match parts with
  | [] -> invalid_arg "Absint.concat_f: empty"
  | hd :: tl ->
    List.fold_left
      (fun acc p ->
        { known = Bitvec.concat acc.known p.known;
          value = Bitvec.concat acc.value p.value })
      hd tl

let reduce_or_f a =
  if not (Bitvec.is_zero (Bitvec.logand a.known a.value)) then
    exact (Bitvec.of_bool true)
  else if is_exact a && Bitvec.is_zero a.value then exact (Bitvec.of_bool false)
  else top 1

let reduce_and_f a =
  if not (Bitvec.is_zero (Bitvec.logand a.known (Bitvec.lognot a.value))) then
    exact (Bitvec.of_bool false)
  else if is_exact a && Bitvec.is_ones a.value then exact (Bitvec.of_bool true)
  else top 1

(* {1 Fixpoint} *)

let transfer facts (n : N.node) =
  match n.N.kind with
  | N.Input -> top n.N.width
  | N.Const v -> exact v
  | N.Reg _ -> facts n.N.id (* filled in by the caller from the register map *)
  | N.Wire { driver = Some d } -> facts d
  | N.Wire { driver = None } -> top n.N.width
  | N.Not a -> not_f (facts a)
  | N.Op2 (op, a, b) -> op2_f op (facts a) (facts b)
  | N.Mux { sel; on_true; on_false } ->
    mux_f (facts sel) (facts on_true) (facts on_false)
  | N.Extract { hi; lo; arg } -> extract_f ~hi ~lo (facts arg)
  | N.Concat parts -> concat_f (List.map facts parts)
  | N.ReduceOr a -> reduce_or_f (facts a)
  | N.ReduceAnd a -> reduce_and_f (facts a)

let analyze nl =
  let nn = N.num_nodes nl in
  let order = N.comb_order nl in
  let facts = Array.init nn (fun s -> top (N.width nl s)) in
  let reg_fact = Hashtbl.create 16 in
  N.iter_nodes nl (fun n ->
      match n.N.kind with
      | N.Reg { init = N.Init_value v; _ } ->
        Hashtbl.replace reg_fact n.N.id (exact v)
      | N.Reg { init = N.Init_symbolic; _ } ->
        Hashtbl.replace reg_fact n.N.id (top n.N.width)
      | _ -> ());
  let eval_round () =
    Array.iter
      (fun s ->
        let n = N.node nl s in
        facts.(s) <-
          (match n.N.kind with
          | N.Reg _ -> Hashtbl.find reg_fact s
          | _ -> transfer (fun d -> facts.(d)) n))
      order
  in
  let changed = ref true in
  while !changed do
    changed := false;
    eval_round ();
    N.iter_nodes nl (fun n ->
        match n.N.kind with
        | N.Reg { next = Some nx; enable; _ } ->
          let cur = Hashtbl.find reg_fact n.N.id in
          let nf = facts.(nx) in
          let stepped =
            match enable with
            | None -> nf
            | Some e ->
              let ef = facts.(e) in
              if is_exact ef then
                if Bitvec.is_zero ef.value then cur else nf
              else join nf cur
          in
          let merged = join cur stepped in
          if not (fact_equal merged cur) then begin
            Hashtbl.replace reg_fact n.N.id merged;
            changed := true
          end
        | _ -> ())
  done;
  eval_round ();
  facts

let known_bits nl =
  Array.map (fun f -> (f.known, f.value)) (analyze nl)

let stuck_value kb s =
  let known, value = kb.(s) in
  if Bitvec.is_ones known then Some value else None

let known_zero kb s =
  let known, value = kb.(s) in
  Bitvec.is_ones known && Bitvec.is_zero value
