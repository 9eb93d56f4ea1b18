(* CellIFT's combinational cell taint rules over a taint domain.  See
   taint.mli. *)

module N = Netlist

module type DOMAIN = sig
  type t

  val logor : t -> t -> t
  val logand : t -> t -> t
  val any : t -> t
  val replicate : t -> int -> t
  val extract : hi:int -> lo:int -> t -> t
  val concat : t list -> t
  val may_be_one : N.signal -> t
  val may_be_zero : N.signal -> t
  val may_differ : N.signal -> N.signal -> t
  val choose : sel:N.signal -> t -> t -> t
end

(* The shape of each expression fixes the order in which the netlist
   domain creates shadow nodes (OCaml evaluates arguments right to left),
   and so the instrumented netlist's digest, which keys the verdict cache:
   rewriting a rule into an equivalent expression of another shape moves
   every cached IFT verdict. *)
module Make (D : DOMAIN) = struct
  let comb ~precise ~width taint kind =
    match kind with
    | N.Input | N.Const _ | N.Reg _ | N.Wire { driver = None } -> None
    | N.Wire { driver = Some d } -> Some (taint d)
    | N.Not a -> Some (taint a)
    | N.Op2 (N.And, a, b) ->
      Some
        (if precise then
           (* an output bit flips only where a controlling input is tainted *)
           D.logor
             (D.logand (taint a) (D.logor (D.may_be_one b) (taint b)))
             (D.logand (taint b) (D.may_be_one a))
         else D.logor (taint a) (taint b))
    | N.Op2 (N.Or, a, b) ->
      Some
        (if precise then
           D.logor
             (D.logand (taint a) (D.logor (D.may_be_zero b) (taint b)))
             (D.logand (taint b) (D.may_be_zero a))
         else D.logor (taint a) (taint b))
    | N.Op2 (N.Xor, a, b) -> Some (D.logor (taint a) (taint b))
    | N.Op2 ((N.Add | N.Sub | N.Mul), a, b) ->
      (* conservative: any tainted input bit taints the whole word *)
      Some (D.replicate (D.any (D.logor (taint a) (taint b))) width)
    | N.Op2 ((N.Eq | N.Ult | N.Slt), a, b) ->
      Some (D.any (D.logor (taint a) (taint b)))
    | N.Mux { sel; on_true; on_false } ->
      let tsel = taint sel in
      Some
        (if precise then (
           let base = D.choose ~sel (taint on_true) (taint on_false) in
           let differ =
             D.logor (D.may_differ on_true on_false)
               (D.logor (taint on_true) (taint on_false))
           in
           D.logor base (D.logand (D.replicate tsel width) differ))
         else
           D.logor (D.logor (taint on_true) (taint on_false)) (D.replicate tsel width))
    | N.Extract { hi; lo; arg } -> Some (D.extract ~hi ~lo (taint arg))
    | N.Concat parts -> Some (D.concat (List.map taint parts))
    | N.ReduceOr a | N.ReduceAnd a -> Some (D.any (taint a))
end
