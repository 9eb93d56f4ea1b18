module S = Sat.Solver

module type BITS = sig
  type ctx
  type bit

  val one : ctx -> bit
  val neg : bit -> bit
  val conj : ctx -> bit -> bit -> bit
  val disj : ctx -> bit -> bit -> bit
  val xor : ctx -> bit -> bit -> bit
  val mux : ctx -> bit -> bit -> bit -> bit (* select, on true, on false *)
end

module Make (B : BITS) = struct
  let const c v =
    let tt = B.one c in
    let ff = B.neg tt in
    Array.init (Bitvec.width v) (fun i -> if Bitvec.bit v i then tt else ff)

  (* On literals every call may allocate a variable and add clauses, so
     the calls are sequenced explicitly: their order is the CNF's variable
     numbering. *)
  let full_add c a b cin =
    let ab = B.xor c a b in
    let c_ab = B.conj c cin ab in
    let g = B.conj c a b in
    let carry = B.disj c g c_ab in
    let sum = B.xor c ab cin in
    (sum, carry)

  let ripple_add c ?cin la lb =
    let w = Array.length la in
    let carry = ref (match cin with Some x -> x | None -> B.neg (B.one c)) in
    Array.init w (fun i ->
        let s, co = full_add c la.(i) lb.(i) !carry in
        carry := co;
        s)

  (* Unsigned less-than by LSB-to-MSB scan: at each bit, a difference
     overrides the verdict of the lower bits. *)
  let ripple_ult c la lb =
    let w = Array.length la in
    let lt = ref (B.neg (B.one c)) in
    for i = 0 to w - 1 do
      let diff = B.xor c la.(i) lb.(i) in
      lt := B.mux c diff lb.(i) !lt
    done;
    !lt

  let ripple_slt c la lb =
    let w = Array.length la in
    let lt = ref (B.neg (B.one c)) in
    for i = 0 to w - 1 do
      let diff = B.xor c la.(i) lb.(i) in
      (* At the sign bit the comparison flips: a set sign means smaller. *)
      let when_diff = if i = w - 1 then la.(i) else lb.(i) in
      lt := B.mux c diff when_diff !lt
    done;
    !lt

  let node c get (nd : Netlist.node) =
    let tt = B.one c in
    let ff = B.neg tt in
    let w = nd.Netlist.width in
    let of_const = const c in
    let open Netlist in
    match nd.kind with
    | Input | Reg _ -> invalid_arg "Lower.node: a source has no lowering"
    | Wire { driver = None } -> invalid_arg "Lower.node: unconnected wire"
    | Const v -> of_const v
    | Wire { driver = Some d } -> get d
    | Not a -> Array.map B.neg (get a)
    | Op2 (op, a, b) -> (
      let la = get a and lb = get b in
      match op with
      | And -> Array.init w (fun i -> B.conj c la.(i) lb.(i))
      | Or -> Array.init w (fun i -> B.disj c la.(i) lb.(i))
      | Xor -> Array.init w (fun i -> B.xor c la.(i) lb.(i))
      | Add -> ripple_add c la lb
      | Sub -> ripple_add c ~cin:tt la (Array.map B.neg lb)
      | Mul ->
        let acc = ref (Array.make w ff) in
        for j = 0 to w - 1 do
          let row =
            Array.init w (fun i -> if i >= j then B.conj c la.(i - j) lb.(j) else ff)
          in
          acc := ripple_add c !acc row
        done;
        !acc
      | Eq ->
        let z =
          Array.to_list la
          |> List.mapi (fun i ai -> B.neg (B.xor c ai lb.(i)))
          |> List.fold_left (B.conj c) tt
        in
        [| z |]
      | Ult -> [| ripple_ult c la lb |]
      | Slt -> [| ripple_slt c la lb |])
    | Mux { sel; on_true; on_false } ->
      let ls = (get sel).(0) in
      let la = get on_true and lb = get on_false in
      Array.init w (fun i -> B.mux c ls la.(i) lb.(i))
    | Extract { hi; lo; arg } -> Array.sub (get arg) lo (hi - lo + 1)
    | Concat parts ->
      List.rev parts
      |> List.map (fun p -> Array.to_list (get p))
      |> List.concat |> Array.of_list
    | ReduceOr a -> [| Array.fold_left (B.disj c) ff (get a) |]
    | ReduceAnd a -> [| Array.fold_left (B.conj c) tt (get a) |]
end

module Lits = struct
  type t = {
    s : S.t;
    lt : S.lit; (* constant true *)
    cse : bool;
    cache : (int * int * int, S.lit) Hashtbl.t;
        (* (gate tag, operand, operand) -> output.  Constant folding runs
           first, so keys never hold the constant literal. *)
    mutable hits : int;
    mutable lookups : int;
  }

  let create ?(cse = true) s =
    let lt = S.pos (S.new_var s) in
    S.add_clause s [ lt ];
    { s; lt; cse; cache = Hashtbl.create 1024; hits = 0; lookups = 0 }

  let solver e = e.s
  let fresh e = S.pos (S.new_var e.s)
  let cse_stats e = (e.hits, e.lookups)
  let one e = e.lt
  let neg = S.negate

  (* The output cached under [key], or [build ()] cached under it. *)
  let hashed e key build =
    if not e.cse then build ()
    else begin
      e.lookups <- e.lookups + 1;
      match Hashtbl.find_opt e.cache key with
      | Some z ->
        e.hits <- e.hits + 1;
        z
      | None ->
        let z = build () in
        Hashtbl.add e.cache key z;
        z
    end

  let conj e a b =
    let lf = S.negate e.lt in
    if a = lf || b = lf then lf
    else if a = e.lt then b
    else if b = e.lt then a
    else if a = b then a
    else if a = S.negate b then lf
    else
      hashed e (0, min a b, max a b) (fun () ->
          let z = fresh e in
          S.add_clause e.s [ S.negate z; a ];
          S.add_clause e.s [ S.negate z; b ];
          S.add_clause e.s [ z; S.negate a; S.negate b ];
          z)

  let disj e a b = S.negate (conj e (S.negate a) (S.negate b))

  let xor e a b =
    let lf = S.negate e.lt in
    if a = lf then b
    else if a = e.lt then S.negate b
    else if b = lf then a
    else if b = e.lt then S.negate a
    else if a = b then lf
    else if a = S.negate b then e.lt
    else begin
      (* Fold signs out: xor(~a, b) = ~xor(a, b). *)
      let va = S.var_of a and vb = S.var_of b in
      let z =
        hashed e (1, min va vb, max va vb) (fun () ->
            let pa = S.pos va and pb = S.pos vb in
            let z = fresh e in
            S.add_clause e.s [ S.negate z; pa; pb ];
            S.add_clause e.s [ S.negate z; S.negate pa; S.negate pb ];
            S.add_clause e.s [ z; S.negate pa; pb ];
            S.add_clause e.s [ z; pa; S.negate pb ];
            z)
      in
      if S.is_pos a <> S.is_pos b then S.negate z else z
    end

  let mux e sel t f =
    let lf = S.negate e.lt in
    if sel = e.lt then t
    else if sel = lf then f
    else if t = f then t
    else if t = e.lt && f = lf then sel
    else if t = lf && f = e.lt then S.negate sel
    else begin
      let z = fresh e in
      S.add_clause e.s [ S.negate sel; S.negate t; z ];
      S.add_clause e.s [ S.negate sel; t; S.negate z ];
      S.add_clause e.s [ sel; S.negate f; z ];
      S.add_clause e.s [ sel; f; S.negate z ];
      S.add_clause e.s [ S.negate t; S.negate f; z ];
      S.add_clause e.s [ t; f; S.negate z ];
      z
    end

  include Make (struct
    type ctx = t
    type bit = S.lit

    let one = one
    let neg = neg
    let conj = conj
    let disj = disj
    let xor = xor
    let mux = mux
  end)
end
