type signal = int

type op2 = And | Or | Xor | Add | Sub | Mul | Eq | Ult | Slt

type init = Init_value of Bitvec.t | Init_symbolic

type kind =
  | Input
  | Const of Bitvec.t
  | Reg of { init : init; mutable next : signal option; mutable enable : signal option }
  | Wire of { mutable driver : signal option }
  | Not of signal
  | Op2 of op2 * signal * signal
  | Mux of { sel : signal; on_true : signal; on_false : signal }
  | Extract of { hi : int; lo : int; arg : signal }
  | Concat of signal list
  | ReduceOr of signal
  | ReduceAnd of signal

type node = { id : signal; width : int; kind : kind; name : string option }

type t = {
  netlist_name : string;
  mutable nodes : node array;
  mutable count : int;
  names : (string, signal) Hashtbl.t;
  mutable digest_cache : string option;
      (* Memoized [digest]: the checker recomputes the digest per cover for
         every cache key, so it must be O(1) between mutations.  Every
         mutation path (add / set_name / connect functions) clears it. *)
}

let create netlist_name =
  {
    netlist_name;
    nodes = Array.make 64 { id = 0; width = 1; kind = Input; name = None };
    count = 0;
    names = Hashtbl.create 64;
    digest_cache = None;
  }

let name t = t.netlist_name

(* Reg and Wire records carry the only mutable node fields, so they are the
   records a copy must not share; every other node is immutable.  The match
   names every kind, so a kind added with mutable fields fails the build
   here until it is copied too. *)
let copy t =
  let fresh n =
    match n.kind with
    | Reg { init; next; enable } -> { n with kind = Reg { init; next; enable } }
    | Wire { driver } -> { n with kind = Wire { driver } }
    | Input | Const _ | Not _ | Op2 _ | Mux _ | Extract _ | Concat _ | ReduceOr _
    | ReduceAnd _ ->
      n
  in
  {
    t with
    nodes = Array.mapi (fun i n -> if i < t.count then fresh n else n) t.nodes;
    names = Hashtbl.copy t.names;
    digest_cache = None;
  }

let node t s =
  if s < 0 || s >= t.count then
    invalid_arg
      (Printf.sprintf "Netlist.node: bad signal %d in %s (%d nodes)" s
         t.netlist_name t.count);
  t.nodes.(s)

(* Shared by every error site: name the offending node when it has a name,
   and always give its id, so a failure inside a large elaboration points
   at the node rather than just the operation. *)
let describe_node n =
  match n.name with
  | Some nm -> Printf.sprintf "%s (node %d)" nm n.id
  | None -> Printf.sprintf "node %d" n.id

let describe t s =
  if s < 0 || s >= t.count then Printf.sprintf "signal %d" s
  else describe_node t.nodes.(s)

let width t s = (node t s).width
let num_nodes t = t.count

let iter_nodes t f =
  for i = 0 to t.count - 1 do
    f t.nodes.(i)
  done

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_nodes t (fun n -> acc := f !acc n);
  !acc

let find_named t nm = Hashtbl.find_opt t.names nm

let register_name t s nm =
  (match Hashtbl.find_opt t.names nm with
  | Some holder ->
    failwith
      (Printf.sprintf "Netlist %s: duplicate name %s (held by %s, wanted for node %d)"
         t.netlist_name nm (describe t holder) s)
  | None -> ());
  Hashtbl.replace t.names nm s

let add t ?name width kind =
  t.digest_cache <- None;
  if width <= 0 then
    invalid_arg
      (Printf.sprintf "Netlist.add: width must be positive, got %d for %s (node %d)"
         width
         (match name with Some nm -> nm | None -> "<unnamed>")
         t.count);
  if t.count = Array.length t.nodes then begin
    let a = Array.make (2 * t.count) t.nodes.(0) in
    Array.blit t.nodes 0 a 0 t.count;
    t.nodes <- a
  end;
  let id = t.count in
  let n = { id; width; kind; name } in
  t.nodes.(id) <- n;
  t.count <- id + 1;
  (match name with Some nm -> register_name t id nm | None -> ());
  id

let set_name t s nm =
  t.digest_cache <- None;
  let n = node t s in
  (match n.name with
  | Some old -> Hashtbl.remove t.names old
  | None -> ());
  t.nodes.(s) <- { n with name = Some nm };
  register_name t s nm

let input t nm w = add t ~name:nm w Input
let const t v = add t (Bitvec.width v) (Const v)

let reg t ?enable ~name ~init ~width () =
  (match init with
  | Init_value v ->
    if Bitvec.width v <> width then
      invalid_arg
        (Printf.sprintf
           "Netlist.reg: init width mismatch for %s (node %d): init is %d bits, \
            register is %d"
           name t.count (Bitvec.width v) width)
  | Init_symbolic -> ());
  add t ~name width (Reg { init; next = None; enable })

let wire t ?name w = add t ?name w (Wire { driver = None })

let connect_reg t r nxt =
  t.digest_cache <- None;
  match (node t r).kind with
  | Reg re ->
    (match re.next with
    | Some _ ->
      failwith
        (Printf.sprintf "Netlist.connect_reg: %s already connected" (describe t r))
    | None ->
      if width t nxt <> width t r then
        failwith
          (Printf.sprintf
             "Netlist.connect_reg: width mismatch: %s is %d bits, next %s is %d"
             (describe t r) (width t r) (describe t nxt) (width t nxt));
      re.next <- Some nxt)
  | _ ->
    failwith
      (Printf.sprintf "Netlist.connect_reg: %s is not a register" (describe t r))

let connect_enable t r en =
  t.digest_cache <- None;
  match (node t r).kind with
  | Reg re ->
    (match re.enable with
    | Some _ ->
      failwith
        (Printf.sprintf "Netlist.connect_enable: %s already connected"
           (describe t r))
    | None ->
      if width t en <> 1 then
        failwith
          (Printf.sprintf
             "Netlist.connect_enable: enable for %s must be 1 bit, %s is %d"
             (describe t r) (describe t en) (width t en));
      re.enable <- Some en)
  | _ ->
    failwith
      (Printf.sprintf "Netlist.connect_enable: %s is not a register"
         (describe t r))

let connect_wire t w drv =
  t.digest_cache <- None;
  match (node t w).kind with
  | Wire wi ->
    (match wi.driver with
    | Some _ ->
      failwith
        (Printf.sprintf "Netlist.connect_wire: %s already connected"
           (describe t w))
    | None ->
      if width t drv <> width t w then
        failwith
          (Printf.sprintf
             "Netlist.connect_wire: width mismatch: %s is %d bits, driver %s is %d"
             (describe t w) (width t w) (describe t drv) (width t drv));
      wi.driver <- Some drv)
  | _ ->
    failwith
      (Printf.sprintf "Netlist.connect_wire: %s is not a wire" (describe t w))

let not_ t a = add t (width t a) (Not a)

let op2 t op a b =
  let wa = width t a and wb = width t b in
  (match op with
  | And | Or | Xor | Add | Sub | Mul | Eq | Ult | Slt ->
    if wa <> wb then
      invalid_arg
        (Printf.sprintf "Netlist.op2: width mismatch: %s is %d bits, %s is %d"
           (describe t a) wa (describe t b) wb));
  let w = match op with Eq | Ult | Slt -> 1 | _ -> wa in
  add t w (Op2 (op, a, b))

let mux t ~sel ~on_true ~on_false =
  if width t sel <> 1 then
    invalid_arg
      (Printf.sprintf "Netlist.mux: selector %s must be 1 bit, got %d"
         (describe t sel) (width t sel));
  if width t on_true <> width t on_false then
    invalid_arg
      (Printf.sprintf
         "Netlist.mux: branch width mismatch: %s is %d bits, %s is %d"
         (describe t on_true) (width t on_true) (describe t on_false)
         (width t on_false));
  add t (width t on_true) (Mux { sel; on_true; on_false })

let extract t ~hi ~lo arg =
  let w = width t arg in
  if lo < 0 || hi >= w || hi < lo then
    invalid_arg
      (Printf.sprintf "Netlist.extract: bad range [%d:%d] of %s (%d bits)" hi lo
         (describe t arg) w);
  add t (hi - lo + 1) (Extract { hi; lo; arg })

let concat t parts =
  match parts with
  | [] ->
    invalid_arg
      (Printf.sprintf "Netlist.concat: empty part list in %s" t.netlist_name)
  | [ s ] -> s
  | _ ->
    let w = List.fold_left (fun acc s -> acc + width t s) 0 parts in
    add t w (Concat parts)

let reduce_or t a = add t 1 (ReduceOr a)
let reduce_and t a = add t 1 (ReduceAnd a)

(* Combinational inputs of a node: the signals read in the same cycle.
   A register reads [next]/[enable] for the *following* cycle, so it has no
   combinational fan-in. *)
let comb_fanin t s =
  match (node t s).kind with
  | Input | Const _ | Reg _ -> []
  | Wire { driver } -> (match driver with Some d -> [ d ] | None -> [])
  | Not a | ReduceOr a | ReduceAnd a -> [ a ]
  | Op2 (_, a, b) -> [ a; b ]
  | Mux { sel; on_true; on_false } -> [ sel; on_true; on_false ]
  | Extract { arg; _ } -> [ arg ]
  | Concat parts -> parts

(* The word-level meaning of one node, given its operands' values; a source
   (input or register) reads its own value.  This is the one reference
   semantics: the simulator's wide path, Equiv's pattern simulation and the
   simulator's differential test all evaluate through it. *)
let eval_node t value s =
  match (node t s).kind with
  | Input | Reg _ -> value s
  | Wire { driver = None } -> invalid_arg "Netlist.eval_node: unconnected wire"
  | Const v -> v
  | Wire { driver = Some d } -> value d
  | Not a -> Bitvec.lognot (value a)
  | Op2 (op, a, b) -> (
    let va = value a and vb = value b in
    match op with
    | And -> Bitvec.logand va vb
    | Or -> Bitvec.logor va vb
    | Xor -> Bitvec.logxor va vb
    | Add -> Bitvec.add va vb
    | Sub -> Bitvec.sub va vb
    | Mul -> Bitvec.mul va vb
    | Eq -> Bitvec.of_bool (Bitvec.equal va vb)
    | Ult -> Bitvec.of_bool (Bitvec.ult va vb)
    | Slt -> Bitvec.of_bool (Bitvec.slt va vb))
  | Mux { sel; on_true; on_false } ->
    if Bitvec.is_zero (value sel) then value on_false else value on_true
  | Extract { hi; lo; arg } -> Bitvec.extract (value arg) ~hi ~lo
  | Concat [] -> invalid_arg "Netlist.eval_node: empty concat"
  | Concat (p :: rest) ->
    List.fold_left (fun hi q -> Bitvec.concat hi (value q)) (value p) rest
  | ReduceOr a -> Bitvec.of_bool (not (Bitvec.is_zero (value a)))
  | ReduceAnd a -> Bitvec.of_bool (Bitvec.is_ones (value a))

(* Nontrivial strongly connected components of the combinational dependency
   graph (node -> comb_fanin): every combinational cycle lies inside one, and
   a component is nontrivial when it has more than one node or a self-edge.
   Tarjan's algorithm; members are sorted by id, components come out in
   first-discovery order. *)
let comb_sccs t =
  let n = t.count in
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] in
  let next_index = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (comb_fanin t v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      let nontrivial =
        match comp with [ s ] -> List.mem s (comb_fanin t s) | _ -> true
      in
      if nontrivial then sccs := List.sort Int.compare comp :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !sccs

let validate t =
  let describe = describe_node in
  (* Collect every problem before failing: all unconnected registers and
     wires, then every combinational cycle (one per nontrivial SCC), so a
     partial design surfaces its full repair list in one error. *)
  let unconnected =
    fold_nodes t ~init:[] ~f:(fun acc n ->
        match n.kind with
        | Reg { next = None; _ } ->
          Printf.sprintf "unconnected register %s" (describe n) :: acc
        | Wire { driver = None } ->
          Printf.sprintf "unconnected wire %s" (describe n) :: acc
        | _ -> acc)
    |> List.rev
  in
  let cycles =
    List.map
      (fun scc ->
        Printf.sprintf "combinational cycle through %s"
          (String.concat " -> " (List.map (fun s -> describe (node t s)) scc)))
      (comb_sccs t)
  in
  match unconnected @ cycles with
  | [] -> ()
  | [ msg ] -> failwith (Printf.sprintf "Netlist %s: %s" t.netlist_name msg)
  | msgs ->
    failwith
      (Printf.sprintf "Netlist %s: %d problems: %s" t.netlist_name
         (List.length msgs) (String.concat "; " msgs))

let comb_order t =
  let order = Array.make t.count 0 in
  let pos = ref 0 in
  let color = Array.make t.count 0 in
  let rec visit s =
    if color.(s) = 0 then begin
      color.(s) <- 1;
      List.iter visit (comb_fanin t s);
      color.(s) <- 2;
      order.(!pos) <- s;
      incr pos
    end
  in
  for s = 0 to t.count - 1 do
    visit s
  done;
  order

let comb_cone t roots =
  let seen = Hashtbl.create 64 in
  let rec visit s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s ();
      List.iter visit (comb_fanin t s)
    end
  in
  List.iter visit roots;
  seen

let registers t =
  fold_nodes t ~init:[] ~f:(fun acc n ->
      match n.kind with Reg _ -> n.id :: acc | _ -> acc)
  |> List.rev

let inputs t =
  fold_nodes t ~init:[] ~f:(fun acc n ->
      match n.kind with Input -> n.id :: acc | _ -> acc)
  |> List.rev

(* --- structural digest --------------------------------------------------- *)

let compute_digest t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sig_opt = function None -> "." | Some s -> string_of_int s in
  let bv v =
    Printf.sprintf "%d'%s" (Bitvec.width v) (Bitvec.to_hex_string v)
  in
  add "netlist %s %d\n" t.netlist_name t.count;
  iter_nodes t (fun n ->
      add "%d %d %s " n.id n.width (Option.value n.name ~default:".");
      (match n.kind with
      | Input -> add "in"
      | Const v -> add "c %s" (bv v)
      | Reg { init; next; enable } ->
        let i = match init with Init_value v -> bv v | Init_symbolic -> "sym" in
        add "r %s %s %s" i (sig_opt next) (sig_opt enable)
      | Wire { driver } -> add "w %s" (sig_opt driver)
      | Not a -> add "not %d" a
      | Op2 (op, a, b) ->
        let o =
          match op with
          | And -> "and" | Or -> "or" | Xor -> "xor" | Add -> "add"
          | Sub -> "sub" | Mul -> "mul" | Eq -> "eq" | Ult -> "ult"
          | Slt -> "slt"
        in
        add "%s %d %d" o a b
      | Mux { sel; on_true; on_false } -> add "mux %d %d %d" sel on_true on_false
      | Extract { hi; lo; arg } -> add "ex %d %d %d" hi lo arg
      | Concat args -> add "cat %s" (String.concat "," (List.map string_of_int args))
      | ReduceOr a -> add "ror %d" a
      | ReduceAnd a -> add "rand %d" a);
      Buffer.add_char buf '\n');
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest t =
  match t.digest_cache with
  | Some d -> d
  | None ->
    let d = compute_digest t in
    t.digest_cache <- Some d;
    d
