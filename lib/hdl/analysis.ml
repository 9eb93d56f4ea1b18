(* Static netlist analyses beyond the cone/order primitives of [Netlist]:
   constant folding, observability (dead cells), and an abstract
   interpretation of µFSM state registers that over-approximates their
   reachable state sets.  These back the µLint passes and the static
   cover-pruning pre-pass of [Mupath.Synth]. *)

module N = Netlist

(* --- constant folding --------------------------------------------------- *)

let eval_op2 op a b =
  match op with
  | N.And -> Bitvec.logand a b
  | N.Or -> Bitvec.logor a b
  | N.Xor -> Bitvec.logxor a b
  | N.Add -> Bitvec.add a b
  | N.Sub -> Bitvec.sub a b
  | N.Mul -> Bitvec.mul a b
  | N.Eq -> Bitvec.of_bool (Bitvec.equal a b)
  | N.Ult -> Bitvec.of_bool (Bitvec.ult a b)
  | N.Slt -> Bitvec.of_bool (Bitvec.slt a b)

let const_values t =
  let n = N.num_nodes t in
  let memo = Array.make (max n 1) `Unknown in
  let rec value s =
    match memo.(s) with
    | `Done v -> v
    | `Busy -> None (* combinational cycle: not a constant *)
    | `Unknown ->
      memo.(s) <- `Busy;
      let v = compute s in
      memo.(s) <- `Done v;
      v
  and compute s =
    match (N.node t s).N.kind with
    | N.Const v -> Some v
    | N.Input | N.Reg _ -> None
    | N.Wire { driver = Some d } -> value d
    | N.Wire { driver = None } -> None
    | N.Not a -> Option.map Bitvec.lognot (value a)
    | N.Op2 (op, a, b) -> (
      match (value a, value b) with
      | Some va, Some vb -> Some (eval_op2 op va vb)
      | _ -> None)
    | N.Mux { sel; on_true; on_false } -> (
      match value sel with
      | Some v -> if Bitvec.is_zero v then value on_false else value on_true
      | None -> (
        match (value on_true, value on_false) with
        | Some a, Some b when Bitvec.equal a b -> Some a
        | _ -> None))
    | N.Extract { hi; lo; arg } -> slice n arg hi lo
    | N.Concat parts ->
      List.fold_left
        (fun acc p ->
          match (acc, value p) with
          | Some a, Some v -> Some (Bitvec.concat a v)
          | _ -> None)
        (value (List.hd parts))
        (List.tl parts)
    | N.ReduceOr a ->
      Option.map (fun v -> Bitvec.of_bool (not (Bitvec.is_zero v))) (value a)
    | N.ReduceAnd a -> Option.map (fun v -> Bitvec.of_bool (Bitvec.is_ones v)) (value a)
  (* Bits [hi..lo] of signal [s], folding the extract *through* the
     structure: a slice of a partially-constant Concat is itself constant
     whenever the selected range lands on constant parts, even though the
     whole word is not.  [fuel] bounds chain length so cyclic wire chains in
     unvalidated netlists (µLint's input) terminate. *)
  and slice fuel s hi lo =
    match value s with
    | Some v -> Some (Bitvec.extract v ~hi ~lo)
    | None when fuel <= 0 -> None
    | None -> (
      match (N.node t s).N.kind with
      | N.Wire { driver = Some d } -> slice (fuel - 1) d hi lo
      | N.Not a -> Option.map Bitvec.lognot (slice (fuel - 1) a hi lo)
      | N.Extract { lo = l2; arg; _ } -> slice (fuel - 1) arg (l2 + hi) (l2 + lo)
      | N.Concat parts ->
        (* Walk the parts LSB-first (the list head holds the MSBs),
           slicing each part that overlaps the requested range. *)
        let rec collect parts_lsb_first off =
          match parts_lsb_first with
          | [] -> Some []
          | p :: rest ->
            let w = N.width t p in
            if off > hi then Some []
            else if off + w <= lo then collect rest (off + w)
            else
              let plo = max lo off - off and phi = min hi (off + w - 1) - off in
              (match slice (fuel - 1) p phi plo with
              | None -> None
              | Some v ->
                Option.map (fun tl -> v :: tl) (collect rest (off + w)))
        in
        (match collect (List.rev parts) 0 with
        | Some (piece :: pieces) ->
          (* pieces are LSB-first: fold each higher piece onto the top *)
          Some (List.fold_left (fun acc v -> Bitvec.concat v acc) piece pieces)
        | _ -> None)
      | _ -> None)
  in
  Array.init (max n 1) (fun s -> if s < n then value s else None)

let constant_foldable t =
  let consts = const_values t in
  N.fold_nodes t ~init:[] ~f:(fun acc n ->
      match n.N.kind with
      | N.Const _ | N.Input | N.Reg _ -> acc
      | _ -> if consts.(n.N.id) <> None then n.N.id :: acc else acc)
  |> List.rev

(* --- observability (dead cells) ----------------------------------------- *)

(* Liveness closure from [roots] through both combinational fan-in and the
   sequential inputs of registers (next/enable): a node outside the closure
   cannot influence any root — for roots = {registers, named signals,
   annotated signals} this is exactly "not in the cone of influence of any
   output, register, or annotated signal". *)
let dead_cells t ~roots =
  let n = N.num_nodes t in
  let live = Array.make (max n 1) false in
  let fanin s =
    match (N.node t s).N.kind with
    | N.Reg { next; enable; _ } -> List.filter_map Fun.id [ next; enable ]
    | _ -> N.comb_fanin t s
  in
  let rec mark s =
    if not live.(s) then begin
      live.(s) <- true;
      List.iter mark (fanin s)
    end
  in
  List.iter mark roots;
  let acc = ref [] in
  for s = n - 1 downto 0 do
    if not live.(s) then acc := s :: !acc
  done;
  !acc

(* --- static taint dataflow ---------------------------------------------- *)

let taint_reaches masks s = not (Bitvec.is_zero masks.(s))

(* Word-level may-taint masks to a sequential fixpoint, by [Taint]'s cell
   rules over masks.  Their value facts read a per-signal (known, value)
   envelope — the caller's [known], or [const_values] lifted to fully-known
   words — that contains every runtime value, so each mask
   over-approximates the shadow [Ift.instrument] builds by the same rules
   in the same [precise] mode (analysis.mli says why the modes must
   match).  The imprecise rules read no value facts, so they build none. *)
let taint_reach ?(precise = true) ?known ?(blocked = []) ~sources t =
  let n = N.num_nodes t in
  let env =
    match known with
    | _ when not precise -> [||]
    | Some k -> k
    | None ->
      let consts = const_values t in
      Array.init n (fun s ->
          let w = N.width t s in
          match consts.(s) with
          | Some v -> (Bitvec.ones w, v)
          | None ->
            let z = Bitvec.zero w in
            (z, z))
  in
  let masks = Array.init n (fun s -> Bitvec.zero (N.width t s)) in
  let is_source = Array.make (max n 1) false in
  List.iter (fun s -> is_source.(s) <- true) sources;
  (* An injected source register reads as tainted even when also listed as
     blocked, matching [Ift]'s phase-3 priority (inject over blocked). *)
  let is_blocked = Array.make (max n 1) false in
  List.iter (fun s -> if not is_source.(s) then is_blocked.(s) <- true) blocked;
  List.iter (fun s -> masks.(s) <- Bitvec.ones (N.width t s)) sources;
  let order = N.comb_order t in
  let module Rules = Taint.Make (struct
    type t = Bitvec.t

    let logor = Bitvec.logor
    let logand = Bitvec.logand
    let any m = Bitvec.of_bool (not (Bitvec.is_zero m))
    let replicate b w = if Bitvec.is_zero b then Bitvec.zero w else Bitvec.ones w
    let extract ~hi ~lo m = Bitvec.extract m ~hi ~lo
    let concat ms = List.fold_left Bitvec.concat (List.hd ms) (List.tl ms)

    let may_be_one s =
      let k, v = env.(s) in
      Bitvec.logor v (Bitvec.lognot k)

    let may_be_zero s =
      let k, v = env.(s) in
      Bitvec.lognot (Bitvec.logand k v)

    let may_differ a b =
      let ka, va = env.(a) and kb, vb = env.(b) in
      Bitvec.lognot
        (Bitvec.logand (Bitvec.logand ka kb) (Bitvec.lognot (Bitvec.logxor va vb)))

    (* A select with a proven-1 bit is nonzero: the mux takes its true arm. *)
    let choose ~sel tt tf =
      let k, v = env.(sel) in
      if not (Bitvec.is_zero (Bitvec.logand k v)) then tt
      else if Bitvec.is_ones k then tf
      else Bitvec.logor tt tf
  end) in
  let taint s = masks.(s) in
  (* Alternate combinational and sequential passes until the register masks
     stop growing.  Every rule is monotone in its input masks and register
     masks only accumulate, so the loop terminates within (total register
     bits + 1) iterations. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun id ->
        if not (is_source.(id) || is_blocked.(id)) then
          match Rules.comb ~precise ~width:(N.width t id) taint (N.node t id).N.kind with
          | Some m -> masks.(id) <- m
          | None -> ())
      order;
    N.iter_nodes t (fun node ->
        match node.N.kind with
        | N.Reg { next; enable; _ }
          when not (is_source.(node.N.id) || is_blocked.(node.N.id)) ->
          let upd =
            (* A tainted enable makes whether-the-register-updates itself
               operand-dependent: the whole word may carry taint.  ([Ift]
               rejects enables outright; the static rule stays sound for
               designs it cannot instrument.) *)
            match enable with
            | Some en when taint_reaches masks en -> Bitvec.ones node.N.width
            | _ -> (
              match next with
              | Some nxt -> masks.(nxt)
              | None -> Bitvec.zero node.N.width)
          in
          let m = Bitvec.logor masks.(node.N.id) upd in
          if not (Bitvec.equal m masks.(node.N.id)) then begin
            masks.(node.N.id) <- m;
            changed := true
          end
        | _ -> ())
  done;
  masks

(* --- abstract µFSM reachability ----------------------------------------- *)

module BvSet = Set.Make (Bitvec)

type aval = Top | Vals of BvSet.t

(* Value-set widening threshold: beyond this many distinct values a node's
   abstract value degrades to Top.  State registers are a few bits wide, so
   the sets that matter stay far below the cap. *)
let set_cap = 64

(* The per-variable analysis bails (returning [None]) rather than enumerate
   huge domains: registers wider than this cannot go to "all values", and
   joint products beyond [joint_cap] states are refused. *)
let max_var_width = 10
let joint_cap = 4096

exception Bail

let full_set w =
  if w > max_var_width then raise Bail
  else
    List.fold_left
      (fun acc i -> BvSet.add (Bitvec.of_int ~width:w i) acc)
      BvSet.empty
      (List.init (1 lsl w) Fun.id)

let clamp s = if BvSet.cardinal s > set_cap then Top else Vals s

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Vals x, Vals y -> clamp (BvSet.union x y)

let map1 f = function Top -> Top | Vals s -> clamp (BvSet.map f s)

let map2 f a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Vals x, Vals y ->
    if BvSet.cardinal x * BvSet.cardinal y > set_cap * set_cap then Top
    else
      clamp
        (BvSet.fold
           (fun vx acc ->
             BvSet.fold (fun vy acc -> BvSet.add (f vx vy) acc) y acc)
           x BvSet.empty)

(* Known-bits rescue for [fsm_reachable]: a node the value-set evaluation
   widens to Top can still be bounded by its known-bits envelope when few
   enough bits are unknown to enumerate.  2^6 = 64 completions = [set_cap]. *)
let kb_enum_cap = 6

let kb_set known s =
  match known with
  | None -> None
  | Some k ->
    let kn, v = k.(s) in
    let w = Bitvec.width kn in
    let unknown = w - Bitvec.popcount kn in
    if unknown = 0 then Some (BvSet.singleton v)
    else if unknown > kb_enum_cap then None
    else begin
      let idxs =
        List.filter (fun i -> not (Bitvec.bit kn i)) (List.init w Fun.id)
      in
      let expand acc i =
        BvSet.fold
          (fun bv a -> BvSet.add (Bitvec.set_bit bv i true) (BvSet.add bv a))
          acc BvSet.empty
      in
      Some (List.fold_left expand (BvSet.singleton v) idxs)
    end

let fsm_reachable ?known t ~vars =
  match vars with
  | [] -> None
  | _ -> (
    try
      (* Pull each state register's init / next / enable up front; a var
         that is not a connected register defeats the analysis. *)
      let regs =
        List.map
          (fun v ->
            match (N.node t v).N.kind with
            | N.Reg { init; next = Some nxt; enable } -> (v, init, nxt, enable)
            | _ -> raise Bail)
          vars
      in
      let init_set v init =
        match init with
        | N.Init_value bv -> BvSet.singleton bv
        | N.Init_symbolic -> full_set (N.width t v)
      in
      (* env: accumulated reachable value set per state register.  Every
         other register and every input reads as Top, so the abstraction
         over-approximates regardless of the rest of the design (and of any
         checker-side environment assumptions, which only shrink the
         concrete reachable set). *)
      let env = Hashtbl.create 8 in
      List.iter (fun (v, init, _, _) -> Hashtbl.replace env v (init_set v init)) regs;
      let eval_with memo s =
        let rec eval s =
          match Hashtbl.find_opt memo s with
          | Some v -> v
          | None ->
            Hashtbl.replace memo s Top;
            (* cycle guard: sound *)
            let v =
              match (N.node t s).N.kind with
              | N.Input -> Top
              | N.Const c -> Vals (BvSet.singleton c)
              | N.Reg _ -> (
                match Hashtbl.find_opt env s with
                | Some set -> Vals set
                | None -> Top)
              | N.Wire { driver = Some d } -> eval d
              | N.Wire { driver = None } -> Top
              | N.Not a -> map1 Bitvec.lognot (eval a)
              | N.Op2 (op, a, b) -> map2 (eval_op2 op) (eval a) (eval b)
              | N.Mux { sel; on_true; on_false } -> (
                match eval sel with
                | Vals s1 when BvSet.cardinal s1 = 1 ->
                  if Bitvec.is_zero (BvSet.choose s1) then eval on_false
                  else eval on_true
                | _ -> join (eval on_true) (eval on_false))
              | N.Extract { hi; lo; arg } ->
                map1 (fun v -> Bitvec.extract v ~hi ~lo) (eval arg)
              | N.Concat parts ->
                List.fold_left
                  (fun acc p -> map2 Bitvec.concat acc (eval p))
                  (eval (List.hd parts))
                  (List.tl parts)
              | N.ReduceOr a ->
                map1 (fun v -> Bitvec.of_bool (not (Bitvec.is_zero v))) (eval a)
              | N.ReduceAnd a ->
                map1 (fun v -> Bitvec.of_bool (Bitvec.is_ones v)) (eval a)
            in
            let v =
              match v with
              | Top -> (
                match kb_set known s with Some set -> clamp set | None -> Top)
              | Vals _ -> v
            in
            Hashtbl.replace memo s v;
            v
        in
        eval s
      in
      (* Accumulate to fixpoint: each step evaluates every var's next-state
         expression under the current value sets and unions the results in
         (an enable that is not provably 1 means the register may also hold,
         but the held value is already accumulated). *)
      let changed = ref true in
      let iterations = ref 0 in
      while !changed do
        incr iterations;
        if !iterations > set_cap * List.length regs + 4 then raise Bail;
        changed := false;
        let memo = Hashtbl.create 256 in
        List.iter
          (fun (v, _, nxt, enable) ->
            let cur = Hashtbl.find env v in
            let upd =
              match eval_with memo nxt with
              | Top -> full_set (N.width t v)
              | Vals s -> s
            in
            (* An enable provably stuck at 0 freezes the register. *)
            let frozen =
              match enable with
              | None -> false
              | Some en -> (
                match eval_with memo en with
                | Vals s ->
                  (not (BvSet.is_empty s)) && BvSet.for_all Bitvec.is_zero s
                | Top -> false)
            in
            let nxt_set = if frozen then cur else BvSet.union cur upd in
            if not (BvSet.equal nxt_set cur) then begin
              Hashtbl.replace env v nxt_set;
              changed := true
            end)
          regs
      done;
      (* Joint states: cross product in variable order, concatenated with
         the first variable in the most-significant bits — the same layout
         [Dsl.concat] gives the harness's state_of_ufsm. *)
      let per_var = List.map (fun (v, _, _, _) -> BvSet.elements (Hashtbl.find env v)) regs in
      let joint =
        List.fold_left
          (fun acc vals ->
            if List.length acc * List.length vals > joint_cap then raise Bail
            else
              List.concat_map
                (fun hi -> List.map (fun lo -> Bitvec.concat hi lo) vals)
                acc)
          (List.map Fun.id (List.hd per_var))
          (List.tl per_var)
      in
      Some joint
    with Bail -> None)
