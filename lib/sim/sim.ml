module Netlist = Hdl.Netlist

(* Values at most this wide live unboxed in an [int array]; wider ones keep
   their [Bitvec.t]. *)
let narrow_bits = 62

(* One instruction per distinct computation, in [Netlist.comb_order]: the
   program is hash-consed, so a node whose opcode, width, operands and
   immediates repeat an earlier node's shares that node's slot, and a wire
   shares its driver's.  [rep] maps every node to the slot holding its
   value.  Inputs, registers and wide nodes keep their own slots.  Operands
   [x], [y], [z] are slots or constants, as noted per opcode; results that
   can leave the node's width are masked with [z]. *)
type opcode =
  | Const  (* [x] is the value *)
  | Reg  (* the register's state *)
  | Not  (* [lnot x], masked *)
  | And
  | Or
  | Xor  (* [x], [y] *)
  | Add
  | Sub
  | Mul  (* [x], [y], masked *)
  | Eq
  | Ult  (* [x], [y] *)
  | Slt  (* [x], [y], each sign-extended by shifting [z] places *)
  | Mux  (* [x] selects [y] (non-zero) or [z] *)
  | Extract  (* [x lsr y], masked *)
  | Concat  (* [cat.(x) .. cat.(y - 1)]: (slot, width) pairs, MSB first *)
  | Reduce_or  (* [x] *)
  | Reduce_and  (* [x] equals [z], its all-ones value *)
  | Wide_reg  (* the state of a register wider than [narrow_bits] *)
  | Wide
      (* a wide node, or one reading a wide operand: [Netlist.eval_node]
          on [Bitvec.t] values *)

type t = {
  nl : Netlist.t;
  width : int array;
  rep : int array;  (* the slot holding each node's value *)
  op : opcode array;
  dst : int array;
  x : int array;
  y : int array;
  z : int array;
  cat : int array;
  regs : int array;  (* clocked registers, with the slots of their next and enable (-1: none) *)
  reg_next : int array;
  reg_en : int array;
  sym_regs : int array;  (* symbolic-init registers, in id order *)
  inputs : int array;  (* in [Netlist.inputs] order *)
  reg_init : int array;  (* narrow register init values by id (0 elsewhere) *)
  wide_zero : Bitvec.t array;  (* zero of each node's width; [||] if none is wide *)
  wide_init : Bitvec.t array;  (* [wide_zero] with wide register init values *)
  cones : (int, int array) Hashtbl.t;  (* slot -> its cone's instructions, in order *)
  v : int array;  (* narrow values by slot *)
  r : int array;  (* narrow register state by id *)
  wv : Bitvec.t array;  (* wide node values by id; [||] if none is wide *)
  wr : Bitvec.t array;  (* wide register state by id *)
  mutable rng : Random.State.t;
  mutable cycle_count : int;
}

let netlist s = s.nl
let is_wide s sig_ = s.width.(sig_) > narrow_bits
let mask w = (1 lsl w) - 1

(* The hash-consing key of a narrow instruction: opcode, width, operand
   slots and immediates, and a concat's part slots. *)
module Key = struct
  type t = opcode * int * int * int * int * int list

  let equal (a : t) b = a = b

  let hash (o, w, a, b, c, parts) =
    List.fold_left (fun h p -> (h * 31) + p) (Hashtbl.hash (o, w, a, b, c)) parts
    land max_int
end

module Keys = Hashtbl.Make (Key)

let compile nl =
  let n = Netlist.num_nodes nl in
  let width = Array.init n (Netlist.width nl) in
  let wide s = width.(s) > narrow_bits in
  let order = Netlist.comb_order nl in
  let len = Array.length order in
  let rep = Array.init n Fun.id in
  let op = Array.make len Const and dst = Array.make len 0 in
  let x = Array.make len 0 and y = Array.make len 0 and z = Array.make len 0 in
  let count = ref 0 in
  let emit o d a b c =
    let i = !count in
    op.(i) <- o;
    dst.(i) <- d;
    x.(i) <- a;
    y.(i) <- b;
    z.(i) <- c;
    count := i + 1
  in
  let cat = ref [] and ncat = ref 0 in
  let keys = Keys.create len in
  (* Emit node [d]'s instruction unless an earlier one has its key; [parts]
     are a concat's operands, appended to [cat] only when emitted. *)
  let shared o d ?(parts = []) a b c =
    let key = (o, width.(d), a, b, c, parts) in
    match Keys.find_opt keys key with
    | Some slot -> rep.(d) <- slot
    | None ->
      Keys.add keys key d;
      if o = Concat then begin
        let start = !ncat in
        List.iter
          (fun p ->
            cat := width.(p) :: p :: !cat;
            ncat := !ncat + 2)
          parts;
        emit o d start !ncat 0
      end
      else emit o d a b c
  in
  (* Commutative operands in a fixed order, so [a op b] and [b op a] share. *)
  let sorted o d a b c = shared o d (min a b) (max a b) c in
  let r s = rep.(s) in
  Array.iter
    (fun id ->
      let w = width.(id) in
      match (Netlist.node nl id).Netlist.kind with
      | Netlist.Input -> ()
      | Netlist.Reg _ -> emit (if wide id then Wide_reg else Reg) id 0 0 0
      | _ when wide id || List.exists wide (Netlist.comb_fanin nl id) ->
        emit Wide id 0 0 0
      | Netlist.Const c -> shared Const id (Bitvec.to_int c) 0 0
      | Netlist.Wire { driver = Some d } -> rep.(id) <- r d
      | Netlist.Wire { driver = None } -> assert false (* validated *)
      | Netlist.Not a -> shared Not id (r a) 0 (mask w)
      | Netlist.Op2 (o, a, b) -> (
        let a = r a and b = r b in
        match o with
        | Netlist.And -> sorted And id a b 0
        | Netlist.Or -> sorted Or id a b 0
        | Netlist.Xor -> sorted Xor id a b 0
        | Netlist.Add -> sorted Add id a b (mask w)
        | Netlist.Sub -> shared Sub id a b (mask w)
        | Netlist.Mul -> sorted Mul id a b (mask w)
        | Netlist.Eq -> sorted Eq id a b 0
        | Netlist.Ult -> shared Ult id a b 0
        | Netlist.Slt -> shared Slt id a b (Sys.int_size - width.(a)))
      | Netlist.Mux { sel; on_true; on_false } ->
        shared Mux id (r sel) (r on_true) (r on_false)
      | Netlist.Extract { hi; lo; arg } -> shared Extract id (r arg) lo (mask (hi - lo + 1))
      | Netlist.Concat parts -> shared Concat id ~parts:(List.map r parts) 0 0 0
      | Netlist.ReduceOr a -> shared Reduce_or id (r a) 0 0
      | Netlist.ReduceAnd a -> shared Reduce_and id (r a) 0 (mask width.(a)))
    order;
  let prog a = Array.sub a 0 !count in
  let regs = ref [] and sym_regs = ref [] in
  let reg_init = Array.make n 0 in
  let wide_zero =
    if Array.exists (fun w -> w > narrow_bits) width then
      let zero1 = Bitvec.zero 1 in
      Array.map (fun w -> if w > narrow_bits then Bitvec.zero w else zero1) width
    else [||]
  in
  let wide_init = Array.copy wide_zero in
  List.iter
    (fun r ->
      match (Netlist.node nl r).Netlist.kind with
      | Netlist.Reg { init; next; enable } ->
        Option.iter
          (fun nx ->
            let en = match enable with Some en -> rep.(en) | None -> -1 in
            regs := (r, rep.(nx), en) :: !regs)
          next;
        (match init with
        | Netlist.Init_value c ->
          if wide r then wide_init.(r) <- c else reg_init.(r) <- Bitvec.to_int c
        | Netlist.Init_symbolic -> sym_regs := r :: !sym_regs)
      | _ -> ())
    (Netlist.registers nl);
  let regs = Array.of_list (List.rev !regs) in
  {
    nl;
    width;
    rep;
    op = prog op;
    dst = prog dst;
    x = prog x;
    y = prog y;
    z = prog z;
    cat = Array.of_list (List.rev !cat);
    regs = Array.map (fun (r, _, _) -> r) regs;
    reg_next = Array.map (fun (_, nx, _) -> nx) regs;
    reg_en = Array.map (fun (_, _, en) -> en) regs;
    sym_regs = Array.of_list (List.rev !sym_regs);
    inputs = Array.of_list (Netlist.inputs nl);
    reg_init;
    wide_zero;
    wide_init;
    cones = Hashtbl.create 4;
    v = Array.make n 0;
    r = Array.make n 0;
    wv = Array.copy wide_zero;
    wr = Array.copy wide_zero;
    rng = Random.State.make [| 0; 0x5eed |];
    cycle_count = 0;
  }

(* Store a drawn or poked value in the narrow or wide array. *)
let set s values wide_values sig_ bv =
  if is_wide s sig_ then wide_values.(sig_) <- bv else values.(sig_) <- Bitvec.to_int bv

let reset ?seed s =
  Option.iter (fun seed -> s.rng <- Random.State.make [| seed; 0x5eed |]) seed;
  s.cycle_count <- 0;
  Array.fill s.v 0 (Array.length s.v) 0;
  Array.blit s.reg_init 0 s.r 0 (Array.length s.r);
  Array.blit s.wide_zero 0 s.wv 0 (Array.length s.wv);
  Array.blit s.wide_init 0 s.wr 0 (Array.length s.wr);
  Array.iter
    (fun r -> set s s.r s.wr r (Bitvec.random s.rng s.width.(r)))
    s.sym_regs

let create ?(seed = 0) nl =
  Netlist.validate nl;
  let s = compile nl in
  reset ~seed s;
  s

let poke s sig_ v =
  (match (Netlist.node s.nl sig_).Netlist.kind with
  | Netlist.Input -> ()
  | _ -> invalid_arg "Sim.poke: not an input");
  if Bitvec.width v <> s.width.(sig_) then invalid_arg "Sim.poke: width mismatch";
  set s s.v s.wv sig_ v

let poke_reg s sig_ v =
  (match (Netlist.node s.nl sig_).Netlist.kind with
  | Netlist.Reg _ -> ()
  | _ -> invalid_arg "Sim.poke_reg: not a register");
  if Bitvec.width v <> s.width.(sig_) then invalid_arg "Sim.poke_reg: width mismatch";
  set s s.r s.wr sig_ v

let poke_random_inputs s =
  Array.iter
    (fun i -> set s s.v s.wv i (Bitvec.random s.rng s.width.(i)))
    s.inputs

let peek s sig_ =
  if is_wide s sig_ then s.wv.(sig_)
  else Bitvec.of_int ~width:s.width.(sig_) s.v.(s.rep.(sig_))

let peek_bool s sig_ =
  if is_wide s sig_ then not (Bitvec.is_zero s.wv.(sig_)) else s.v.(s.rep.(sig_)) <> 0

let eval_wide s d = set s s.v s.wv d (Netlist.eval_node s.nl (peek s) d)

(* Run instruction [i]: the one step [eval] and [eval_cone] share. *)
let[@inline] exec s i =
  let v = s.v and x = s.x and y = s.y and z = s.z in
  let d = s.dst.(i) in
  match s.op.(i) with
  | Const -> v.(d) <- x.(i)
  | Reg -> v.(d) <- s.r.(d)
  | Not -> v.(d) <- lnot v.(x.(i)) land z.(i)
  | And -> v.(d) <- v.(x.(i)) land v.(y.(i))
  | Or -> v.(d) <- v.(x.(i)) lor v.(y.(i))
  | Xor -> v.(d) <- v.(x.(i)) lxor v.(y.(i))
  | Add -> v.(d) <- (v.(x.(i)) + v.(y.(i))) land z.(i)
  | Sub -> v.(d) <- (v.(x.(i)) - v.(y.(i))) land z.(i)
  | Mul -> v.(d) <- (v.(x.(i)) * v.(y.(i))) land z.(i)
  | Eq -> v.(d) <- Bool.to_int (v.(x.(i)) = v.(y.(i)))
  | Ult -> v.(d) <- Bool.to_int (v.(x.(i)) < v.(y.(i)))
  | Slt ->
    let sh = z.(i) in
    v.(d) <- Bool.to_int ((v.(x.(i)) lsl sh) asr sh < (v.(y.(i)) lsl sh) asr sh)
  | Mux -> v.(d) <- (if v.(x.(i)) <> 0 then v.(y.(i)) else v.(z.(i)))
  | Extract -> v.(d) <- (v.(x.(i)) lsr y.(i)) land z.(i)
  | Concat ->
    let acc = ref 0 in
    let j = ref x.(i) in
    while !j < y.(i) do
      acc := (!acc lsl s.cat.(!j + 1)) lor v.(s.cat.(!j));
      j := !j + 2
    done;
    v.(d) <- !acc
  | Reduce_or -> v.(d) <- Bool.to_int (v.(x.(i)) <> 0)
  | Reduce_and -> v.(d) <- Bool.to_int (v.(x.(i)) = z.(i))
  | Wide_reg -> s.wv.(d) <- s.wr.(d)
  | Wide -> eval_wide s d

let eval s =
  for i = 0 to Array.length s.op - 1 do
    exec s i
  done

(* The instructions writing the slots of [sig_]'s combinational cone, in
   program order; computed once per slot. *)
let cone s sig_ =
  let slot = s.rep.(sig_) in
  match Hashtbl.find_opt s.cones slot with
  | Some c -> c
  | None ->
    let writer = Array.make (Array.length s.v) (-1) in
    Array.iteri (fun i d -> writer.(d) <- i) s.dst;
    let c =
      Hashtbl.fold
        (fun node () acc ->
          let i = writer.(s.rep.(node)) in
          if i >= 0 then i :: acc else acc)
        (Netlist.comb_cone s.nl [ sig_ ])
        []
      |> List.sort_uniq compare |> Array.of_list
    in
    Hashtbl.replace s.cones slot c;
    c

let eval_cone s sig_ = Array.iter (fun i -> exec s i) (cone s sig_)

let step s =
  for i = 0 to Array.length s.regs - 1 do
    let en = s.reg_en.(i) in
    if en < 0 || peek_bool s en then begin
      let r = s.regs.(i) and nx = s.reg_next.(i) in
      if is_wide s r then s.wr.(r) <- s.wv.(nx) else s.r.(r) <- s.v.(nx)
    end
  done;
  s.cycle_count <- s.cycle_count + 1

let cycle s = s.cycle_count

let run s ~cycles ~stimulus ~observe =
  for c = 0 to cycles - 1 do
    stimulus s c;
    eval s;
    observe s c;
    step s
  done
