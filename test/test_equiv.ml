(* Hdl.Equiv tests: SAT-sweep correctness (duplicates, complements,
   proven constants, and a constant-phase counterexample simulated before
   the next candidate), merge barriers (ports / registers / metadata
   signals survive), the qcheck differential asserting swept and
   unswept netlists agree on every original signal over a 24-cycle
   random simulation, the qcheck differential of the block simulator
   against [Netlist.eval_node], and the memoized structural digest. *)

module N = Hdl.Netlist
module E = Hdl.Equiv

let bv w i = Bitvec.of_int ~width:w i

(* A small design with guaranteed redundancy: two copies of [a & b],
   a complementary pair around [a == b], and an [x ^ x] constant. *)
let redundant_netlist () =
  let nl = N.create "redundant" in
  let a = N.input nl "a" 4 in
  let b = N.input nl "b" 4 in
  let dup1 = N.op2 nl N.And a b in
  let dup2 = N.op2 nl N.And a b in
  let eq1 = N.op2 nl N.Eq a b in
  let eq2 = N.op2 nl N.Eq a b in
  let neq = N.not_ nl eq2 in
  let zero = N.op2 nl N.Xor a a in
  let r = N.reg nl ~name:"r" ~init:(N.Init_value (bv 4 0)) ~width:4 () in
  let sum = N.op2 nl N.Add dup1 zero in
  N.connect_reg nl r sum;
  let out = N.op2 nl N.Or dup2 r in
  N.set_name nl out "out";
  let flag = N.op2 nl N.Or eq1 neq in
  N.set_name nl flag "flag";
  (nl, dup1, dup2, eq1, neq, zero)

let test_sweep_merges_duplicates () =
  let nl, dup1, dup2, _eq1, _neq, zero = redundant_netlist () in
  let _red, image, stats = E.reduce nl in
  Alcotest.(check bool) "dup2 merged onto dup1" true (image.(dup2) = image.(dup1));
  Alcotest.(check bool) "some complement merge" true (stats.E.complement_merged >= 1);
  Alcotest.(check bool) "xor-with-self proven constant" true
    (stats.E.const_merged >= 1);
  Alcotest.(check bool) "zero merged" true (image.(zero) >= 0);
  Alcotest.(check bool) "at least three merges" true (stats.E.merged >= 3);
  Alcotest.(check bool) "no veto on acyclic design" true (stats.E.vetoed = 0)

let test_sweep_proven_constant_is_const_node () =
  let nl, _, _, _, _, zero = redundant_netlist () in
  let red, image, _ = E.reduce nl in
  match (N.node red image.(zero)).N.kind with
  | N.Const v -> Alcotest.(check bool) "constant value 0" true (Bitvec.is_zero v)
  | _ -> Alcotest.fail "x^x did not land on a Const node"

let test_analyze_classes () =
  let nl, dup1, dup2, eq1, neq, _zero = redundant_netlist () in
  let classes, stats = E.analyze nl in
  let find_class_of s =
    List.find_opt
      (fun c -> c.E.rep = s || List.exists (fun (m, _) -> m = s) c.E.members)
      classes
  in
  (match find_class_of dup2 with
  | Some c -> Alcotest.(check int) "dup class rep is lowest id" dup1 c.E.rep
  | None -> Alcotest.fail "no class for duplicate");
  (match find_class_of neq with
  | Some c ->
    let ph =
      if c.E.rep = eq1 then
        List.exists (fun (m, ph) -> m = neq && ph) c.E.members
      else false
    in
    Alcotest.(check bool) "neq is complement of eq1" true ph
  | None -> Alcotest.fail "no class for complement pair");
  Alcotest.(check bool) "queries issued" true (stats.E.sat_queries > 0)

(* A counterexample found while proving constants reaches the traces
   before the next constant candidate is examined.  [x], an unnamed
   16-input AND, and [y], [x] concatenated with itself, both read constant
   0 under the random patterns.  The miter for [x] comes back Sat (every
   input set), and that counterexample shows [y] at 3, so [y] is never
   queried: one query, one refutation.  Deferring the counterexample would
   issue a second, refuted query on [y]. *)
let test_const_phase_counterexample_first () =
  let nl = N.create "const_phase" in
  let a = N.input nl "a" 16 in
  let x = N.reduce_and nl a in
  let y = N.concat nl [ x; x ] in
  let red, image, stats = E.reduce nl in
  Alcotest.(check (pair int int)) "queries / refuted" (1, 1)
    (stats.E.sat_queries, stats.E.sat_refuted);
  Alcotest.(check int) "no merges" 0 stats.E.merged;
  (match ((N.node red image.(x)).N.kind, (N.node red image.(y)).N.kind) with
  | N.ReduceAnd _, N.Concat _ -> ()
  | _ -> Alcotest.fail "a refuted constant candidate was rewritten");
  Alcotest.(check int) "both nodes survive" (N.num_nodes nl) (N.num_nodes red)

(* --- merge barriers ----------------------------------------------------- *)

let test_barriers_survive () =
  let nl, _, _, _, _, _ = redundant_netlist () in
  let red, image, _ = E.reduce nl in
  (* Inputs, registers and named nodes all survive under their names. *)
  List.iter
    (fun nm ->
      match N.find_named red nm with
      | Some s ->
        let orig = Option.get (N.find_named nl nm) in
        Alcotest.(check int) (nm ^ " image points at the named survivor") s
          image.(orig)
      | None -> Alcotest.fail ("named signal lost: " ^ nm))
    [ "a"; "b"; "r"; "out"; "flag" ];
  Alcotest.(check int) "register count preserved"
    (List.length (N.registers nl))
    (List.length (N.registers red));
  Alcotest.(check int) "input count preserved"
    (List.length (N.inputs nl))
    (List.length (N.inputs red))

let test_explicit_barrier_not_merged () =
  (* Two unnamed duplicates; passing one as an explicit (metadata-style)
     barrier must keep it as its own node. *)
  let nl = N.create "bar" in
  let a = N.input nl "a" 4 in
  let b = N.input nl "b" 4 in
  let dup1 = N.op2 nl N.And a b in
  let dup2 = N.op2 nl N.And a b in
  let out = N.op2 nl N.Or dup1 dup2 in
  N.set_name nl out "out";
  let red, image, stats = E.reduce ~barriers:[ dup2 ] nl in
  Alcotest.(check bool) "barrier kept distinct" true (image.(dup2) <> image.(dup1));
  Alcotest.(check int) "no merges" 0 stats.E.merged;
  ignore red

let test_metadata_signals_are_barriers () =
  (* On a full generated design, no metadata-referenced signal may be
     rewritten away: its image must be a node of the same kind (register
     stays a register, input stays an input). *)
  let cfg = Fuzz.Gen.config_for ~seed:3 0 in
  let meta = Fuzz.Gen.build cfg in
  let nl = meta.Designs.Meta.nl in
  let barriers = Designs.Meta.signals meta in
  let red, image, _ = E.reduce ~barriers nl in
  List.iter
    (fun s ->
      let same_shape =
        match ((N.node nl s).N.kind, (N.node red image.(s)).N.kind) with
        | N.Input, N.Input | N.Reg _, N.Reg _ -> true
        | N.Reg _, _ | N.Input, _ -> false
        | _, _ -> true (* combinational: survives as itself, checked below *)
      in
      Alcotest.(check bool)
        (Printf.sprintf "meta signal %d keeps its shape" s)
        true same_shape;
      match (N.node nl s).N.name with
      | Some nm ->
        Alcotest.(check bool)
          (Printf.sprintf "meta signal %s survives by name" nm)
          true
          (N.find_named red nm = Some image.(s))
      | None -> ())
    barriers

(* --- qcheck differential: swept == unswept over 24 cycles ---------------- *)

(* Sweep [nl], then simulate it and its reduction on the same random
   inputs: the merge count, and whether every original node kept its
   value on every cycle. *)
let sweep_and_compare nl ~barriers ~seed ~cycles =
  let red, image, stats = E.reduce ~barriers nl in
  let s0 = Sim.create ~seed nl in
  let s1 = Sim.create ~seed red in
  let ok = ref true in
  for _ = 1 to cycles do
    Sim.poke_random_inputs s0;
    Sim.poke_random_inputs s1;
    Sim.eval s0;
    Sim.eval s1;
    for id = 0 to N.num_nodes nl - 1 do
      if not (Bitvec.equal (Sim.peek s0 id) (Sim.peek s1 image.(id))) then
        ok := false
    done;
    Sim.step s0;
    Sim.step s1
  done;
  (stats.E.merged, !ok)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let qcheck_sweep_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:"sweep preserves 24-cycle simulation (Fuzz.Gen pipelines)"
       arb_seed
       (fun seed ->
         let cfg = Fuzz.Gen.config_for ~seed 0 in
         let meta = Fuzz.Gen.build cfg in
         snd
           (sweep_and_compare meta.Designs.Meta.nl
              ~barriers:(Designs.Meta.signals meta) ~seed ~cycles:24)))

let test_sweep_differential_builtins () =
  List.iter
    (fun build ->
      let meta = build () in
      let name = N.name meta.Designs.Meta.nl in
      let merged, ok =
        sweep_and_compare meta.Designs.Meta.nl
          ~barriers:(Designs.Meta.signals meta) ~seed:11 ~cycles:24
      in
      Alcotest.(check bool) (name ^ ": swept sim equal") true ok;
      Alcotest.(check bool) (name ^ ": sweep merges") true (merged > 0))
    [
      (fun () -> Designs.Core.build Designs.Core.baseline);
      (fun () -> Designs.Cache.build ());
    ]

(* --- block simulator vs the reference semantics -------------------------- *)

(* Every node kind at widths 1, 62, 63, 64 and 70: either side of a
   62-pattern word and of a 64-bit Bitvec limb.  Each width has an input,
   a register and a wire whose driver comes after its first reader. *)
let every_kind_netlist () =
  let nl = N.create "every_kind" in
  let sel = N.input nl "sel" 1 in
  List.iter
    (fun w ->
      let a = N.input nl (Printf.sprintf "a%d" w) w in
      let r =
        N.reg nl ~name:(Printf.sprintf "r%d" w) ~init:N.Init_symbolic ~width:w ()
      in
      N.connect_reg nl r a;
      let fwd = N.wire nl w in
      let b = N.mux nl ~sel ~on_true:a ~on_false:fwd in
      let ops = N.[ And; Or; Xor; Add; Sub; Mul; Eq; Ult; Slt ] in
      List.iter (fun op -> ignore (N.op2 nl op a b)) ops;
      List.iter (fun op -> ignore (N.op2 nl op b r)) ops;
      ignore (N.not_ nl a);
      ignore (N.extract nl ~hi:(w - 1) ~lo:(w / 2) a);
      ignore (N.extract nl ~hi:0 ~lo:0 b);
      ignore (N.concat nl [ a; sel; r ]);
      ignore (N.reduce_and nl a);
      ignore (N.reduce_or nl (N.op2 nl N.And a r));
      ignore (N.const nl (Bitvec.ones w));
      N.connect_wire nl fwd (N.op2 nl N.Xor r (N.const nl (Bitvec.one w))))
    [ 1; 62; 63; 64; 70 ];
  nl

(* A source value drawn to hit the corners the kinds care about: zero,
   all ones, one, the sign bit alone, or random. *)
let corner_value rng w =
  match Random.State.int rng 5 with
  | 0 -> Bitvec.zero w
  | 1 -> Bitvec.ones w
  | 2 -> Bitvec.one w
  | 3 -> Bitvec.shift_left (Bitvec.one w) (w - 1)
  | _ -> Bitvec.random rng w

(* Append [count] patterns, reading a value half-way so the partial block
   is simulated and then re-simulated, and compare every node on every
   pattern with [Netlist.eval_node]. *)
let block_sim_agrees nl ~seed ~count =
  let rng = Random.State.make [| seed; count |] in
  let n = N.num_nodes nl in
  let order = N.comb_order nl in
  let sources = N.inputs nl @ N.registers nl in
  let pats =
    Array.init count (fun _ ->
        let v = Array.make n (Bitvec.zero 1) in
        List.iter (fun s -> v.(s) <- corner_value rng (N.width nl s)) sources;
        v)
  in
  let t = E.traces nl in
  Array.iteri
    (fun p v ->
      E.add_pattern t (Array.get v);
      if p = count / 2 then ignore (E.value t (n - 1) p))
    pats;
  Array.iteri
    (fun p values ->
      Array.iter
        (fun s ->
          match (N.node nl s).N.kind with
          | N.Input | N.Reg _ -> ()
          | _ -> values.(s) <- N.eval_node nl (Array.get values) s)
        order;
      Array.iteri
        (fun s want ->
          let got = E.value t s p in
          if not (Bitvec.equal want got) then
            QCheck.Test.fail_reportf
              "%s: node %d (%d bits), pattern %d of %d: expected %a, got %a"
              (N.name nl) s (N.width nl s) p count Bitvec.pp want Bitvec.pp got)
        values)
    pats;
  true

let qcheck_block_sim_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6
       ~name:"block simulator matches eval_node (every kind, Fuzz.Gen)"
       arb_seed
       (fun seed ->
         let pipeline = (Fuzz.Gen.build (Fuzz.Gen.config_for ~seed 0)).Designs.Meta.nl in
         List.for_all
           (fun count ->
             block_sim_agrees (every_kind_netlist ()) ~seed ~count
             && block_sim_agrees pipeline ~seed ~count)
           [ 1; 61; 62; 63; 125 ]))

(* --- memoized structural digest ------------------------------------------ *)

let test_digest_memoized () =
  (* Correctness: memoization is invisible (mutations invalidate). *)
  let nl = N.create "memo" in
  let a = N.input nl "a" 8 in
  let d0 = N.digest nl in
  Alcotest.(check string) "repeat call stable" d0 (N.digest nl);
  let x = N.op2 nl N.Add a a in
  let d1 = N.digest nl in
  Alcotest.(check bool) "add invalidates" true (d0 <> d1);
  N.set_name nl x "x";
  let d2 = N.digest nl in
  Alcotest.(check bool) "set_name invalidates" true (d1 <> d2);
  let r = N.reg nl ~name:"r" ~init:N.Init_symbolic ~width:8 () in
  let d3 = N.digest nl in
  N.connect_reg nl r x;
  let d4 = N.digest nl in
  Alcotest.(check bool) "connect_reg invalidates" true (d3 <> d4);
  (* O(1) after the first call: tens of thousands of repeat calls on a
     netlist with thousands of nodes must be far cheaper than even two
     full recomputations' worth of work. *)
  let big = N.create "big" in
  let i0 = N.input big "i0" 32 in
  let acc = ref i0 in
  for _ = 1 to 4000 do
    acc := N.op2 big N.Add !acc i0
  done;
  N.set_name big !acc "out";
  let t0 = Unix.gettimeofday () in
  let first = N.digest big in
  let t_first = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to 50_000 do
    ignore (N.digest big)
  done;
  let t_rest = Unix.gettimeofday () -. t1 in
  Alcotest.(check string) "same digest" first (N.digest big);
  (* 50k cached calls should cost well under 50000x one recomputation;
     allow a factor-100 margin over two recomputations for timer noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "memoized digest is O(1): first=%.6fs rest(50k)=%.6fs"
       t_first t_rest)
    true
    (t_rest < (t_first *. 100.) +. 0.5)

let suite =
  ( "equiv",
    [
      Alcotest.test_case "sweep merges duplicates" `Quick
        test_sweep_merges_duplicates;
      Alcotest.test_case "proven constant becomes Const" `Quick
        test_sweep_proven_constant_is_const_node;
      Alcotest.test_case "analyze classes" `Quick test_analyze_classes;
      Alcotest.test_case "constant-phase counterexample simulated first"
        `Quick test_const_phase_counterexample_first;
      Alcotest.test_case "barriers survive" `Quick test_barriers_survive;
      Alcotest.test_case "explicit barrier not merged" `Quick
        test_explicit_barrier_not_merged;
      Alcotest.test_case "metadata signals are barriers" `Quick
        test_metadata_signals_are_barriers;
      qcheck_sweep_differential;
      qcheck_block_sim_differential;
      Alcotest.test_case "sweep differential on built-ins" `Quick
        test_sweep_differential_builtins;
      Alcotest.test_case "digest memoized" `Quick test_digest_memoized;
    ] )
