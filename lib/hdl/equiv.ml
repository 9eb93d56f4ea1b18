module S = Sat.Solver

type cls = {
  rep : Netlist.signal;
  members : (Netlist.signal * bool) list;
  const_value : Bitvec.t option;
}

type stats = {
  comb_nodes : int;
  candidates : int;
  classes : int;
  merged : int;
  complement_merged : int;
  const_merged : int;
  vetoed : int;
  sat_queries : int;
  sat_refuted : int;
  sat_unknown : int;
  patterns : int;
}

(* ------------------------------------------------------------------ *)
(* Depth-0 CNF encoding of the combinational logic through [Lower]'s gate
   library, the one [Mc.Blast] unrolls: inputs and register outputs are
   free variables.  The block simulator below lowers the same node kinds
   on pattern words, so the sweep's simulation and its encoding cannot
   disagree. *)

module Cnf = Lower.Lits

let encode nl order =
  let g = Cnf.create (S.create ()) in
  let lits = Array.make (Netlist.num_nodes nl) [||] in
  Array.iter
    (fun id ->
      let nd = Netlist.node nl id in
      lits.(id) <-
        (match nd.Netlist.kind with
        | Netlist.Input | Netlist.Reg _ ->
          Array.init nd.Netlist.width (fun _ -> Cnf.fresh g)
        | _ -> Cnf.node g (Array.get lits) nd))
    order;
  (g, lits)

(* ------------------------------------------------------------------ *)
(* Block simulation.  Each node's trace is a set of bit-planes: one OCaml
   int per bit of the node per block of [block] patterns, pattern [p] in
   bit [p mod block] of block [p / block].  One word operation of the
   lowering then simulates a whole block (FRAIG-style).  A pattern is
   appended to the sources' planes as it arrives; [flush] simulates every
   block holding one not yet simulated, the partial last block whole, so
   a batch of counterexamples costs one pass. *)

module Words = Lower.Make (struct
  type ctx = unit
  type bit = int

  let one () = -1
  let neg = lnot
  let conj () a b = a land b
  let disj () a b = a lor b
  let xor () a b = a lxor b
  let mux () s t f = (s land t) lor (lnot s land f)
end)

(* 62 patterns per word leave the sign bit clear: every word and every
   [(1 lsl k) - 1] mask stays non-negative. *)
let block = 62

type traces = {
  t_nl : Netlist.t;
  t_gates : Netlist.node array; (* every non-source node, in comb order *)
  t_sources : Netlist.signal array; (* inputs and registers, ascending id *)
  mutable t_blocks : int array array array;
      (* .(b).(id).(i): bit [i] of node [id] over block [b]; grown by doubling *)
  mutable t_count : int; (* patterns appended *)
  mutable t_simulated : int; (* patterns simulated; the rest are pending *)
}

let make_traces nl order =
  let gates =
    Array.to_list order
    |> List.filter_map (fun id ->
           let nd = Netlist.node nl id in
           match nd.Netlist.kind with
           | Netlist.Input | Netlist.Reg _ -> None
           | _ -> Some nd)
    |> Array.of_list
  in
  let sources =
    Array.of_list (List.sort compare (Netlist.inputs nl @ Netlist.registers nl))
  in
  {
    t_nl = nl;
    t_gates = gates;
    t_sources = sources;
    t_blocks = [||];
    t_count = 0;
    t_simulated = 0;
  }

let traces nl =
  Netlist.validate nl;
  make_traces nl (Netlist.comb_order nl)

let num_blocks t = (t.t_count + block - 1) / block

(* Valid-pattern mask of block [b].  Bits past the last pattern hold
   every node's value under the all-zero pattern and never count. *)
let block_mask t b = (1 lsl min block (t.t_count - (b * block))) - 1

(* Append one pattern: [bits s] reads source [s]'s value bit by bit.  It
   is called once per source, in ascending id order. *)
let push t bits =
  let b = t.t_count / block and k = t.t_count mod block in
  if k = 0 then begin
    if b = Array.length t.t_blocks then
      t.t_blocks <- Array.append t.t_blocks (Array.make (max 1 b) [||]);
    let blk = Array.make (Netlist.num_nodes t.t_nl) [||] in
    Array.iter
      (fun s -> blk.(s) <- Array.make (Netlist.width t.t_nl s) 0)
      t.t_sources;
    t.t_blocks.(b) <- blk
  end;
  let blk = t.t_blocks.(b) in
  Array.iter
    (fun s ->
      let bit = bits s in
      let words = blk.(s) in
      for i = 0 to Array.length words - 1 do
        if bit i then words.(i) <- words.(i) lor (1 lsl k)
      done)
    t.t_sources;
  t.t_count <- t.t_count + 1

let flush t =
  if t.t_simulated < t.t_count then begin
    for b = t.t_simulated / block to num_blocks t - 1 do
      let blk = t.t_blocks.(b) in
      let get s = blk.(s) in
      Array.iter
        (fun nd -> blk.(nd.Netlist.id) <- Words.node () get nd)
        t.t_gates
    done;
    t.t_simulated <- t.t_count
  end

let add_pattern t f =
  push t (fun s ->
      let v = f s in
      if Bitvec.width v <> Netlist.width t.t_nl s then
        invalid_arg "Equiv.add_pattern: width mismatch";
      Bitvec.bit v)

let value t id p =
  if p < 0 || p >= t.t_count then invalid_arg "Equiv.value: no such pattern";
  flush t;
  let words = t.t_blocks.(p / block).(id) in
  Bitvec.of_bits
    (List.init (Array.length words) (fun i -> (words.(i) lsr (p mod block)) land 1 = 1))

(* Node [id]'s whole simulated trace (read it after [flush]) as one masked
   array, with a flag.  A 1-bit trace is taken in the phase that reads 0
   on pattern 0 (the flag says whether it was flipped), so a node and its
   complement share a key. *)
let trace_key t id =
  let w = Netlist.width t.t_nl id in
  let flip = w = 1 && t.t_blocks.(0).(id).(0) land 1 = 1 in
  let key = Array.make (w * num_blocks t) 0 in
  for b = 0 to num_blocks t - 1 do
    let m = block_mask t b and words = t.t_blocks.(b).(id) in
    for i = 0 to w - 1 do
      key.((b * w) + i) <- (if flip then lnot words.(i) else words.(i)) land m
    done
  done;
  (key, flip)

(* Whether node [id] held one value on every pattern. *)
let is_const t id =
  flush t;
  let first = t.t_blocks.(0).(id) in
  let same = ref true in
  for b = 0 to num_blocks t - 1 do
    let m = block_mask t b and words = t.t_blocks.(b).(id) in
    Array.iteri
      (fun i x ->
        let want = if first.(i) land 1 = 1 then m else 0 in
        if x land m <> want then same := false)
      words
  done;
  !same

module Trace_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 31) + x) 0 a land max_int
end)

(* ------------------------------------------------------------------ *)
(* Union-find with parity: each node carries whether it equals (false)
   or complements (true) its parent. *)

type uf = { parent : int array; parity : bool array; rank : int array }

let uf_create n =
  { parent = Array.init n Fun.id; parity = Array.make n false; rank = Array.make n 0 }

let rec uf_find u x =
  if u.parent.(x) = x then (x, false)
  else begin
    let r, p = uf_find u u.parent.(x) in
    let px = u.parity.(x) <> p in
    u.parent.(x) <- r;
    u.parity.(x) <- px;
    (r, px)
  end

let uf_union u x y ph =
  let rx, px = uf_find u x and ry, py = uf_find u y in
  if rx <> ry then begin
    (* parity(x -> y) = ph, so parity(rx -> ry) = px xor ph xor py *)
    let pr = px <> ph <> py in
    if u.rank.(rx) < u.rank.(ry) then begin
      u.parent.(rx) <- ry;
      u.parity.(rx) <- pr
    end
    else begin
      u.parent.(ry) <- rx;
      u.parity.(ry) <- pr;
      if u.rank.(rx) = u.rank.(ry) then u.rank.(rx) <- u.rank.(rx) + 1
    end
  end

(* ------------------------------------------------------------------ *)

type analysis = {
  a_classes : cls list;
  a_comb : int;
  a_cands : int;
  a_queries : int;
  a_refuted : int;
  a_unknown : int;
  a_patterns : int;
  a_candidate : bool array; (* per node: sweepable *)
}

let is_comb (k : Netlist.kind) =
  match k with
  | Input | Const _ | Reg _ | Wire _ -> false
  | Not _ | Op2 _ | Mux _ | Extract _ | Concat _ | ReduceOr _ | ReduceAnd _ -> true

(* Random patterns simulated before the first miter query, and each
   query's conflict budget (an exhausted query merges nothing). *)
let initial_patterns = 64
let max_conflicts = 10_000

let analyze_internal ?(barriers = []) nl =
  Netlist.validate nl;
  let n = Netlist.num_nodes nl in
  let order = Netlist.comb_order nl in
  let barrier = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Equiv: barrier signal out of range";
      barrier.(s) <- true)
    barriers;
  let comb = Array.make n false in
  let candidate = Array.make n false in
  let eligible = Array.make n false in
  Netlist.iter_nodes nl (fun nd ->
      let id = nd.Netlist.id in
      if is_comb nd.Netlist.kind then begin
        comb.(id) <- true;
        if nd.Netlist.name = None && not barrier.(id) then candidate.(id) <- true
      end;
      (match nd.Netlist.kind with Netlist.Wire _ -> () | _ -> eligible.(id) <- true));
  (* Traces: random patterns, one draw per source, simulated by block. *)
  let tr = make_traces nl order in
  let rng = Random.State.make [| 0x53eeb; n |] in
  for _ = 1 to initial_patterns do
    push tr (fun s -> Bitvec.bit (Bitvec.random rng (Netlist.width nl s)))
  done;
  (* SAT side. *)
  let g, lits = encode nl order in
  let s = Cnf.solver g in
  let queries = ref 0 and refuted = ref 0 and unknown = ref 0 in
  let miter_solve diffs =
    let act = Cnf.fresh g in
    S.add_clause s (S.negate act :: diffs);
    incr queries;
    let r = S.solve ~assumptions:[ act ] ~max_conflicts s in
    (match r with
    | S.Sat ->
      incr refuted;
      (* Counterexample pattern: the model's source values refine the
         partition so this pair never pairs up again.  It is simulated
         with the next batch, before any trace is read again. *)
      push tr (fun src ->
          let ls = lits.(src) in
          fun i -> S.lit_value s ls.(i))
    | S.Unsat -> ()
    | S.Unknown -> incr unknown);
    S.add_clause s [ S.negate act ];
    r
  in
  let pair_diffs a b ph =
    let la = lits.(a) and lb = lits.(b) in
    Array.to_list la
    |> List.mapi (fun i ai ->
           Cnf.xor g ai (if ph then S.negate lb.(i) else lb.(i)))
  in
  let const_diffs a v =
    lits.(a) |> Array.to_list
    |> List.mapi (fun i ai -> if Bitvec.bit v i then S.negate ai else ai)
  in
  (* Partition from current traces: eligible nodes keyed by their whole
     trace (1-bit nodes: in the phase that reads 0 on pattern 0,
     remembering whether it was flipped). *)
  let classify () =
    flush tr;
    let tbl = Trace_tbl.create 256 in
    let ordered = ref [] in
    for id = n - 1 downto 0 do
      if eligible.(id) then begin
        let key, ph = trace_key tr id in
        match Trace_tbl.find_opt tbl key with
        | Some l -> l := (id, ph) :: !l
        | None ->
          let l = ref [ (id, ph) ] in
          Trace_tbl.add tbl key l;
          ordered := l :: !ordered
      end
    done;
    (* [ordered] lists classes by descending highest member id; members
       are ascending (downward loop + cons). *)
    List.filter_map
      (fun l -> match !l with [] | [ _ ] -> None | ms -> Some ms)
      (List.rev !ordered)
  in
  let proven : (int * int * bool, bool) Hashtbl.t = Hashtbl.create 256 in
  (* proven maps (low, high, phase) to true (equal) / false (refuted or
     budget-exhausted: never retried). *)
  let fixpoint = ref false in
  while not !fixpoint do
    fixpoint := true;
    let classes = classify () in
    List.iter
      (fun members ->
        match members with
        | [] -> ()
        | (rep, prep) :: rest ->
          List.iter
            (fun (m, pm) ->
              let ph = prep <> pm in
              let key = (rep, m, ph) in
              if not (Hashtbl.mem proven key) then begin
                match miter_solve (pair_diffs rep m ph) with
                | S.Unsat -> Hashtbl.replace proven key true
                | S.Sat ->
                  Hashtbl.replace proven key false;
                  fixpoint := false
                | S.Unknown -> Hashtbl.replace proven key false
              end)
            rest)
      classes
  done;
  (* Transitive closure of the proven equalities. *)
  let u = uf_create n in
  Hashtbl.iter (fun (a, b, ph) eq -> if eq then uf_union u a b ph) proven;
  let groups : (int, (int * bool) list ref) Hashtbl.t = Hashtbl.create 64 in
  for id = n - 1 downto 0 do
    if eligible.(id) then begin
      let r, p = uf_find u id in
      match Hashtbl.find_opt groups r with
      | Some l -> l := (id, p) :: !l
      | None -> Hashtbl.add groups r (ref [ (id, p) ])
    end
  done;
  (* Constant proving: group representatives and lone combinational nodes
     whose trace never varied.  [is_const] simulates a counterexample the
     previous candidate's miter found before it reads a trace. *)
  let try_const id =
    if comb.(id) && is_const tr id then begin
      let v = value tr id 0 in
      match miter_solve (const_diffs id v) with S.Unsat -> Some v | _ -> None
    end
    else None
  in
  let classes = ref [] in
  let group_list =
    Hashtbl.fold (fun _ l acc -> !l :: acc) groups []
    |> List.map (fun ms -> List.sort compare ms)
    |> List.sort compare
  in
  List.iter
    (fun ms ->
      match ms with
      | [] -> ()
      | [ (id, _) ] ->
        (* Singleton: only interesting if provably constant. *)
        Option.iter
          (fun v -> classes := { rep = id; members = []; const_value = Some v } :: !classes)
          (try_const id)
      | (rep, prep) :: rest ->
        let members = List.map (fun (m, pm) -> (m, prep <> pm)) rest in
        classes := { rep; members; const_value = try_const rep } :: !classes)
    group_list;
  let a_classes = List.rev !classes in
  let a_comb = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 comb in
  let a_cands =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 candidate
  in
  {
    a_classes;
    a_comb;
    a_cands;
    a_queries = !queries;
    a_refuted = !refuted;
    a_unknown = !unknown;
    a_patterns = tr.t_count;
    a_candidate = candidate;
  }

let stats_of_analysis a ~classes ~merged ~complement_merged ~const_merged ~vetoed
    =
  {
    comb_nodes = a.a_comb;
    candidates = a.a_cands;
    classes;
    merged;
    complement_merged;
    const_merged;
    vetoed;
    sat_queries = a.a_queries;
    sat_refuted = a.a_refuted;
    sat_unknown = a.a_unknown;
    patterns = a.a_patterns;
  }

let analyze ?barriers nl =
  let a = analyze_internal ?barriers nl in
  (* Pre-veto would-be merge counts. *)
  let classes = ref 0
  and merged = ref 0
  and compl_ = ref 0
  and const_ = ref 0 in
  List.iter
    (fun c ->
      let cand = a.a_candidate in
      let here = ref 0 in
      (match c.const_value with
      | Some _ -> if cand.(c.rep) then (incr here; incr const_)
      | None -> ());
      List.iter
        (fun (m, ph) ->
          if cand.(m) then begin
            incr here;
            if ph then incr compl_;
            if c.const_value <> None then incr const_
          end)
        c.members;
      if !here > 0 then incr classes;
      merged := !merged + !here)
    a.a_classes;
  ( a.a_classes,
    stats_of_analysis a ~classes:!classes ~merged:!merged
      ~complement_merged:!compl_ ~const_merged:!const_ ~vetoed:0 )

(* ------------------------------------------------------------------ *)
(* Rewriting. *)

type merge = { m_rep : int; m_phase : bool; m_const : Bitvec.t option }

let reduce ?(barriers = []) nl =
  let a = analyze_internal ~barriers nl in
  let n = Netlist.num_nodes nl in
  let cand = a.a_candidate in
  let merge_to : merge option array = Array.make n None in
  List.iter
    (fun c ->
      (match c.const_value with
      | Some v when cand.(c.rep) ->
        merge_to.(c.rep) <- Some { m_rep = c.rep; m_phase = false; m_const = Some v }
      | _ -> ());
      List.iter
        (fun (m, ph) ->
          if cand.(m) then
            let mc =
              match c.const_value with
              | Some v -> Some (if ph then Bitvec.lognot v else v)
              | None -> None
            in
            merge_to.(m) <- Some { m_rep = c.rep; m_phase = ph; m_const = mc })
        c.members)
    a.a_classes;
  (* Cycle veto: wire drivers may point forward, so redirecting a fanin
     onto a lower-id representative with a different cone can close a
     combinational loop.  Kahn-peel the rewritten dependency graph; while
     a cyclic residue remains, abandon the lowest-id merge feeding it. *)
  let target o =
    match merge_to.(o) with
    | Some { m_const = Some _; _ } -> None (* constants depend on nothing *)
    | Some { m_rep; _ } -> Some m_rep
    | None -> Some o
  in
  let vetoed = ref 0 in
  let consumers = Array.make n [] in
  for u = 0 to n - 1 do
    List.iter (fun o -> consumers.(o) <- u :: consumers.(o)) (Netlist.comb_fanin nl u)
  done;
  let rec veto_pass () =
    let indeg = Array.make n 0 in
    let succ = Array.make n [] in
    for u = 0 to n - 1 do
      if merge_to.(u) = None then
        List.iter
          (fun o ->
            match target o with
            | Some t ->
              indeg.(u) <- indeg.(u) + 1;
              succ.(t) <- u :: succ.(t)
            | None -> ())
          (Netlist.comb_fanin nl u)
    done;
    let queue = Queue.create () in
    let remaining = ref 0 in
    for u = 0 to n - 1 do
      if merge_to.(u) = None then begin
        incr remaining;
        if indeg.(u) = 0 then Queue.add u queue
      end
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      decr remaining;
      List.iter
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        succ.(u)
    done;
    if !remaining > 0 then begin
      (* Residue contains a cycle; it can only have been closed by a
         merge redirect, so some merged node [o] has its representative
         and a consumer both stuck in the residue. *)
      let in_residue u = merge_to.(u) = None && indeg.(u) > 0 in
      let victim = ref None in
      for o = n - 1 downto 0 do
        match merge_to.(o) with
        | Some { m_rep; m_const = None; _ }
          when in_residue m_rep && List.exists in_residue consumers.(o) ->
          victim := Some o
        | _ -> ()
      done;
      match !victim with
      | Some o ->
        merge_to.(o) <- None;
        incr vetoed;
        veto_pass ()
      | None -> failwith "Equiv.reduce: internal: unresolvable combinational cycle"
    end
  in
  veto_pass ();
  (* Rebuild in id order.  Constants are pooled (so proven constants and
     duplicate unnamed literals share one node); complement merges
     materialize one cached inverter per representative. *)
  let out = Netlist.create (Netlist.name nl) in
  let image = Array.make n (-1) in
  let barrier = Array.make n false in
  List.iter (fun s -> barrier.(s) <- true) barriers;
  let const_pool : (Bitvec.t, int) Hashtbl.t = Hashtbl.create 64 in
  let not_pool : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let const_of v =
    match Hashtbl.find_opt const_pool v with
    | Some s -> s
    | None ->
      let s = Netlist.const out v in
      Hashtbl.add const_pool v s;
      s
  in
  let not_of s =
    match Hashtbl.find_opt not_pool s with
    | Some z -> z
    | None ->
      let z = Netlist.not_ out s in
      Hashtbl.add not_pool s z;
      z
  in
  let merged = ref 0 and compl_ = ref 0 and const_ = ref 0 in
  let merged_classes : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let img o = image.(o) in
  Netlist.iter_nodes nl (fun nd ->
      let id = nd.Netlist.id in
      let w = nd.Netlist.width in
      let name = nd.Netlist.name in
      match merge_to.(id) with
      | Some { m_rep; m_phase; m_const } ->
        incr merged;
        Hashtbl.replace merged_classes m_rep ();
        (match m_const with
        | Some v ->
          incr const_;
          image.(id) <- const_of v
        | None ->
          if m_phase then begin
            incr compl_;
            image.(id) <- not_of image.(m_rep)
          end
          else image.(id) <- image.(m_rep))
      | None ->
        let s =
          match nd.Netlist.kind with
          | Netlist.Input -> Netlist.input out (Option.get name) w
          | Netlist.Const v ->
            if name = None && not barrier.(id) then begin
              (* Duplicate unnamed literal: share the pooled node. *)
              match Hashtbl.find_opt const_pool v with
              | Some s ->
                incr merged;
                incr const_;
                s
              | None -> const_of v
            end
            else begin
              let s = Netlist.const out v in
              if not (Hashtbl.mem const_pool v) then Hashtbl.add const_pool v s;
              s
            end
          | Netlist.Reg { init; _ } ->
            Netlist.reg out ~name:(Option.get name) ~init ~width:w ()
          | Netlist.Wire _ -> Netlist.wire out ?name w
          | Netlist.Not a -> Netlist.not_ out (img a)
          | Netlist.Op2 (op, x, y) -> Netlist.op2 out op (img x) (img y)
          | Netlist.Mux { sel; on_true; on_false } ->
            Netlist.mux out ~sel:(img sel) ~on_true:(img on_true)
              ~on_false:(img on_false)
          | Netlist.Extract { hi; lo; arg } -> Netlist.extract out ~hi ~lo (img arg)
          | Netlist.Concat parts -> Netlist.concat out (List.map img parts)
          | Netlist.ReduceOr x -> Netlist.reduce_or out (img x)
          | Netlist.ReduceAnd x -> Netlist.reduce_and out (img x)
        in
        (match (name, nd.Netlist.kind) with
        | Some nm, (Netlist.Const _ | Netlist.Not _ | Netlist.Op2 _ | Netlist.Mux _
                   | Netlist.Extract _ | Netlist.Concat _ | Netlist.ReduceOr _
                   | Netlist.ReduceAnd _) ->
          Netlist.set_name out s nm
        | _ -> ());
        image.(id) <- s);
  (* Second pass: sequential and forward connections. *)
  Netlist.iter_nodes nl (fun nd ->
      match nd.Netlist.kind with
      | Netlist.Reg { next; enable; _ } when merge_to.(nd.Netlist.id) = None ->
        Option.iter
          (fun nx -> Netlist.connect_reg out image.(nd.Netlist.id) (img nx))
          next;
        Option.iter
          (fun en -> Netlist.connect_enable out image.(nd.Netlist.id) (img en))
          enable
      | Netlist.Wire { driver } when merge_to.(nd.Netlist.id) = None ->
        Option.iter
          (fun d -> Netlist.connect_wire out image.(nd.Netlist.id) (img d))
          driver
      | _ -> ());
  Netlist.validate out;
  let stats =
    stats_of_analysis a
      ~classes:(Hashtbl.length merged_classes)
      ~merged:!merged ~complement_merged:!compl_ ~const_merged:!const_
      ~vetoed:!vetoed
  in
  (out, image, stats)
