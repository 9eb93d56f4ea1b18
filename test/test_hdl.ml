(* Netlist IR and DSL tests: construction invariants, validation errors,
   topological ordering, combinational-cone analysis, a differential
   qcheck of DSL operators against Bitvec via the simulator, and deep
   copies of every design. *)

module N = Hdl.Netlist

let fresh name = N.create name

let test_validate_unconnected () =
  let nl = fresh "u" in
  let _r = N.reg nl ~name:"r" ~init:(N.Init_value (Bitvec.zero 4)) ~width:4 () in
  Alcotest.check_raises "unconnected reg"
    (Failure "Netlist u: unconnected register r (node 0)") (fun () -> N.validate nl);
  let nl = fresh "w" in
  let _w = N.wire nl ~name:"w0" 4 in
  Alcotest.check_raises "unconnected wire"
    (Failure "Netlist w: unconnected wire w0 (node 0)")
    (fun () -> N.validate nl)

(* The satellite bugfix: validate reports *every* problem in one Failure —
   all unconnected registers/wires and all combinational cycles, each with
   node ids and names. *)
let test_validate_reports_all () =
  let nl = fresh "multi" in
  let r = N.reg nl ~name:"r0" ~init:(N.Init_value (Bitvec.zero 4)) ~width:4 () in
  let _w = N.wire nl ~name:"dangling" 2 in
  let c0 = N.wire nl ~name:"loop_a" 1 in
  N.connect_wire nl c0 (N.not_ nl c0);
  let c1 = N.wire nl 1 in
  N.connect_wire nl c1 c1;
  ignore r;
  let msg =
    try
      N.validate nl;
      Alcotest.fail "expected validate to raise"
    with Failure m -> m
  in
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length msg
      && (String.sub msg i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counts problems" true (contains "4 problems");
  Alcotest.(check bool) "reg by name+id" true
    (contains "unconnected register r0 (node 0)");
  Alcotest.(check bool) "wire by name+id" true
    (contains "unconnected wire dangling (node 1)");
  Alcotest.(check bool) "named cycle" true
    (contains "combinational cycle through loop_a (node 2)");
  Alcotest.(check bool) "anonymous self-loop" true
    (contains (Printf.sprintf "combinational cycle through node %d" c1))

let test_comb_cycle_detected () =
  let nl = fresh "c" in
  let w = N.wire nl 1 in
  let x = N.not_ nl w in
  N.connect_wire nl w x;
  Alcotest.(check bool) "raises" true
    (try
       N.validate nl;
       false
     with Failure _ -> true)

let test_reg_breaks_cycle () =
  let nl = fresh "r" in
  let r = N.reg nl ~name:"r" ~init:(N.Init_value (Bitvec.zero 1)) ~width:1 () in
  N.connect_reg nl r (N.not_ nl r);
  N.validate nl (* a register in the loop is fine *)

let test_width_checks () =
  let nl = fresh "wd" in
  let a = N.input nl "a" 4 and b = N.input nl "b" 8 in
  Alcotest.(check bool) "op2 width mismatch" true
    (try
       ignore (N.op2 nl N.Add a b);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "extract bad range" true
    (try
       ignore (N.extract nl ~hi:4 ~lo:0 a);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mux needs 1-bit sel" true
    (try
       ignore (N.mux nl ~sel:b ~on_true:a ~on_false:a);
       false
     with Invalid_argument _ -> true)

(* Satellite audit: every construction/connection error names the offending
   node (name when set, id always), so a failure deep inside elaboration or
   import points at the node, not just the operation. *)
let test_error_messages_name_nodes () =
  let nl = fresh "e" in
  let a = N.input nl "a" 4 and b = N.input nl "b" 8 in
  let expect_msg what f needles =
    let msg =
      try
        f ();
        Alcotest.failf "%s: expected an exception" what
      with
      | Failure m | Invalid_argument m -> m
    in
    let contains sub =
      let rec go i =
        i + String.length sub <= String.length msg
        && (String.sub msg i (String.length sub) = sub || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S (got %S)" what needle msg)
          true (contains needle))
      needles
  in
  expect_msg "op2 mismatch"
    (fun () -> ignore (N.op2 nl N.Add a b))
    [ "a (node 0)"; "b (node 1)"; "4"; "8" ];
  expect_msg "mux selector"
    (fun () -> ignore (N.mux nl ~sel:b ~on_true:a ~on_false:a))
    [ "b (node 1)"; "1 bit" ];
  expect_msg "extract range"
    (fun () -> ignore (N.extract nl ~hi:4 ~lo:0 a))
    [ "a (node 0)"; "[4:0]" ];
  expect_msg "bad signal"
    (fun () -> ignore (N.node nl 99))
    [ "99"; "e" ];
  let r = N.reg nl ~name:"r" ~init:N.Init_symbolic ~width:4 () in
  expect_msg "connect_reg width"
    (fun () -> N.connect_reg nl r b)
    [ "r (node 2)"; "b (node 1)" ];
  expect_msg "connect_reg not a register"
    (fun () -> N.connect_reg nl a b)
    [ "a (node 0)"; "not a register" ];
  N.connect_reg nl r a;
  expect_msg "connect_reg already connected"
    (fun () -> N.connect_reg nl r a)
    [ "r (node 2)"; "already connected" ];
  expect_msg "connect_enable width"
    (fun () -> N.connect_enable nl r b)
    [ "r (node 2)"; "b (node 1)" ];
  let w = N.wire nl ~name:"w" 4 in
  expect_msg "connect_wire width"
    (fun () -> N.connect_wire nl w b)
    [ "w (node 3)"; "b (node 1)" ];
  expect_msg "duplicate name"
    (fun () -> ignore (N.input nl "a" 1))
    [ "a (node 0)"; "duplicate" ];
  expect_msg "reg init width"
    (fun () ->
      ignore
        (N.reg nl ~name:"bad" ~init:(N.Init_value (Bitvec.zero 2)) ~width:4 ()))
    [ "bad"; "2"; "4" ]

let test_names_unique () =
  let nl = fresh "n" in
  let _ = N.input nl "x" 1 in
  Alcotest.(check bool) "duplicate name" true
    (try
       ignore (N.input nl "x" 1);
       false
     with Failure _ -> true);
  Alcotest.(check bool) "find_named" true (N.find_named nl "x" <> None)

let test_comb_order () =
  let nl = fresh "topo" in
  let a = N.input nl "a" 4 in
  let b = N.not_ nl a in
  let c = N.op2 nl N.Add a b in
  let order = N.comb_order nl in
  let pos x = Option.get (Array.find_index (fun s -> s = x) order) in
  Alcotest.(check bool) "a before b" true (pos a < pos b);
  Alcotest.(check bool) "b before c" true (pos b < pos c)

let test_comb_cone () =
  let nl = fresh "cone" in
  let a = N.input nl "a" 4 in
  let r = N.reg nl ~name:"r" ~init:(N.Init_value (Bitvec.zero 4)) ~width:4 () in
  let x = N.op2 nl N.Xor a r in
  N.connect_reg nl r x;
  let unrelated = N.input nl "u" 4 in
  let cone = N.comb_cone nl [ x ] in
  Alcotest.(check bool) "contains a" true (Hashtbl.mem cone a);
  Alcotest.(check bool) "contains r (stops at reg)" true (Hashtbl.mem cone r);
  Alcotest.(check bool) "excludes unrelated" false (Hashtbl.mem cone unrelated)

(* Differential: one circuit instantiating every DSL operator, simulated on
   random inputs and compared against the Bitvec reference semantics. *)
let test_dsl_vs_bitvec () =
  let w = 8 in
  let nl = N.create "alu" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let a = input "a" w and b = input "b" w in
  let outs =
    [
      ("and", a &: b, fun x y -> Bitvec.logand x y);
      ("or", a |: b, fun x y -> Bitvec.logor x y);
      ("xor", a ^: b, fun x y -> Bitvec.logxor x y);
      ("not", ~:a, fun x _ -> Bitvec.lognot x);
      ("add", a +: b, fun x y -> Bitvec.add x y);
      ("sub", a -: b, fun x y -> Bitvec.sub x y);
      ("mul", a *: b, fun x y -> Bitvec.mul x y);
      ("eq", zero_extend (a ==: b) w, fun x y ->
        Bitvec.of_int ~width:w (if Bitvec.equal x y then 1 else 0));
      ("ult", zero_extend (a <: b) w, fun x y ->
        Bitvec.of_int ~width:w (if Bitvec.ult x y then 1 else 0));
      ("slt", zero_extend (a <+ b) w, fun x y ->
        Bitvec.of_int ~width:w (if Bitvec.slt x y then 1 else 0));
      ("mux", mux (a <: b) a b, fun x y -> if Bitvec.ult x y then x else y);
      ("sel", zero_extend (select a 5 2) w, fun x _ ->
        Bitvec.zero_extend (Bitvec.extract x ~hi:5 ~lo:2) w);
      ("cat", concat [ select a 3 0; select b 7 4 ], fun x y ->
        Bitvec.concat (Bitvec.extract x ~hi:3 ~lo:0) (Bitvec.extract y ~hi:7 ~lo:4));
      ("sext", sign_extend (select a 3 0) w, fun x _ ->
        Bitvec.sign_extend (Bitvec.extract x ~hi:3 ~lo:0) w);
      ("prio", priority_mux [ (a ==: b, a); (a <: b, b) ] (zero w), fun x y ->
        if Bitvec.equal x y then x else if Bitvec.ult x y then y else Bitvec.zero w);
      ("bmux", binary_mux (select a 1 0) [ a; b; ~:a; ~:b ], fun x y ->
        match Bitvec.to_int (Bitvec.extract x ~hi:1 ~lo:0) with
        | 0 -> x
        | 1 -> y
        | 2 -> Bitvec.lognot x
        | _ -> Bitvec.lognot y);
    ]
  in
  let named =
    List.map (fun (n, s, f) ->
        let wr = wire ~name:("out_" ^ n) (width s) in
        wr <== s;
        (n, wr, f))
      outs
  in
  let sim = Sim.create nl in
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 300 do
    let va = Bitvec.random rng w and vb = Bitvec.random rng w in
    Sim.poke sim a va;
    Sim.poke sim b vb;
    Sim.eval sim;
    List.iter
      (fun (n, s, f) ->
        let got = Sim.peek sim s and want = f va vb in
        if not (Bitvec.equal got want) then
          Alcotest.failf "%s: %s op %s -> %s, want %s" n
            (Bitvec.to_hex_string va) (Bitvec.to_hex_string vb)
            (Bitvec.to_hex_string got) (Bitvec.to_hex_string want))
      named
  done

(* --- copies ---------------------------------------------------------------- *)

let designs =
  let import json () =
    let meta_path = Filename.remove_extension json ^ ".meta.json" in
    (Frontend.Admission.load ~lint:false ~json_path:json ~meta_path ())
      .Frontend.Admission.meta
  in
  [
    ("cva6_lite", fun () -> Designs.Core.build Designs.Core.baseline);
    ("cva6_mul", fun () -> Designs.Core.build Designs.Core.cva6_mul);
    ("cva6_op", fun () -> Designs.Core.build Designs.Core.cva6_op);
    ("cva6_fixed", fun () -> Designs.Core.build Designs.Core.all_fixed);
    ("ibex_lite", Designs.Ibex.build);
    ("cva6_cache", Designs.Cache.build);
    ("gated", Designs.Gated.build);
    ("ibex_lite.json", import "../examples/ibex_lite.json");
    ("ibex_lite_gl.json", import "../examples/ibex_lite_gl.json");
  ]

(* A copy computes its own digest, and it equals the original's. *)
let test_copy_digest () =
  List.iter
    (fun (name, build) ->
      let nl = (build ()).Designs.Meta.nl in
      let copied = N.digest (N.copy nl) in
      Alcotest.(check string) (name ^ ": copy digest") (N.digest nl) copied)
    designs

(* Extending, renaming or connecting a copy never reaches the original.
   Each original's digest is first computed after its copies changed, and
   compared with a twin built the same way, so no memoized digest can hide
   a shared node. *)
let test_copy_independent () =
  let orig = Designs.Ibex.build () and twin = Designs.Ibex.build () in
  let nl = orig.Designs.Meta.nl in
  let n0 = N.num_nodes nl in
  let harnessed = Designs.Meta.copy orig in
  ignore
    (Mupath.Harness.create ~meta:harnessed ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
       ~iuv_pc:Designs.Ibex.iuv_pc ());
  let instrumented = Designs.Meta.copy orig in
  ignore (Ift.instrument instrumented.Designs.Meta.nl);
  let renamed = N.copy nl in
  let pc = Option.get (N.find_named nl "fetch_pc") in
  N.set_name renamed pc "renamed_pc";
  List.iter
    (fun (what, (c : N.t)) ->
      Alcotest.(check bool) (what ^ " grew the copy") true (N.num_nodes c > n0))
    [ ("harness", harnessed.Designs.Meta.nl); ("IFT", instrumented.Designs.Meta.nl) ];
  Alcotest.(check int) "original node count" n0 (N.num_nodes nl);
  Alcotest.(check (option int)) "original keeps fetch_pc" (Some pc)
    (N.find_named nl "fetch_pc");
  Alcotest.(check (option int)) "original has no renamed_pc" None
    (N.find_named nl "renamed_pc");
  Alcotest.(check (option int)) "copy renamed fetch_pc" (Some pc)
    (N.find_named renamed "renamed_pc");
  Alcotest.(check string) "original digest" (N.digest twin.Designs.Meta.nl)
    (N.digest nl);
  (* Connecting a copy's register and wire leaves the original's open. *)
  let partial () =
    let nl = fresh "partial" in
    let r = N.reg nl ~name:"r" ~init:(N.Init_value (Bitvec.zero 4)) ~width:4 () in
    (nl, r, N.wire nl ~name:"w" 4)
  in
  let p, r, w = partial () and p_twin, _, _ = partial () in
  let c = N.copy p in
  N.connect_wire c w r;
  N.connect_reg c r (N.not_ c w);
  N.validate c;
  Alcotest.(check int) "original node count" 2 (N.num_nodes p);
  Alcotest.(check bool) "original register and wire still open" true
    (match ((N.node p r).N.kind, (N.node p w).N.kind) with
    | N.Reg { next = None; _ }, N.Wire { driver = None } -> true
    | _ -> false);
  Alcotest.(check string) "original digest" (N.digest p_twin) (N.digest p)

let suite =
  ( "hdl",
    [
      Alcotest.test_case "unconnected detection" `Quick test_validate_unconnected;
      Alcotest.test_case "validate reports all problems" `Quick
        test_validate_reports_all;
      Alcotest.test_case "combinational cycle" `Quick test_comb_cycle_detected;
      Alcotest.test_case "register breaks cycle" `Quick test_reg_breaks_cycle;
      Alcotest.test_case "width checks" `Quick test_width_checks;
      Alcotest.test_case "error messages name nodes" `Quick
        test_error_messages_name_nodes;
      Alcotest.test_case "unique names" `Quick test_names_unique;
      Alcotest.test_case "topological order" `Quick test_comb_order;
      Alcotest.test_case "combinational cone" `Quick test_comb_cone;
      Alcotest.test_case "dsl vs bitvec semantics" `Quick test_dsl_vs_bitvec;
      Alcotest.test_case "copy digests like its original" `Quick test_copy_digest;
      Alcotest.test_case "extending a copy leaves the original" `Quick
        test_copy_independent;
    ] )
