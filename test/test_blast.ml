(* Differential validation of the bit-blasted BMC path against the
   simulator: any bit-pattern the simulator can produce must be BMC-
   reachable (with the simulation pre-pass disabled, so the SAT encoding
   itself is exercised), values the circuit can never produce must be
   unreachable, and every witness BMC returns must replay on the simulator.
   A qcheck differential checks every node of the depth-0 encoding against
   [Netlist.eval_node]. *)

module N = Hdl.Netlist
module C = Mc.Checker

(* A small sequential circuit exercising every cell kind, parameterized by
   constants so qcheck can vary the logic. *)
let build_circuit k1 k2 =
  let nl = N.create "diff" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let a = input "a" 6 in
  let b = input "b" 6 in
  let acc = reg ~name:"acc" ~width:6 () in
  let phase = reg ~name:"phase" ~width:2 () in
  let mixed =
    mux (bit phase 0)
      ((a &: of_int 6 k1) +: (b ^: acc))
      ((a |: acc) -: (b *: of_int 6 k2))
  in
  acc <== mixed;
  phase <== (phase +: of_int 2 1);
  (* 1-bit probes for cover conjunctions *)
  List.iteri
    (fun i _ ->
      let w = wire ~name:(Printf.sprintf "acc%d" i) 1 in
      w <== bit acc i)
    (List.init 6 (fun i -> i));
  let hi = wire ~name:"acc_hi" 1 in
  hi <== (acc >=: of_int 6 32);
  nl

let sim_pattern nl ~seed ~cycles =
  let sim = Sim.create ~seed nl in
  let rng = Random.State.make [| seed; 33 |] in
  let a = Option.get (N.find_named nl "a") in
  let b = Option.get (N.find_named nl "b") in
  for _ = 1 to cycles do
    Sim.poke sim a (Bitvec.random rng 6);
    Sim.poke sim b (Bitvec.random rng 6);
    Sim.eval sim;
    Sim.step sim
  done;
  Sim.eval sim;
  List.init 6 (fun i ->
      let s = Option.get (N.find_named nl (Printf.sprintf "acc%d" i)) in
      (s, Sim.peek_bool sim s))

(* Certify a witness on the simulator: from reset with the witness's
   symbolic initial state, poke each cycle's inputs as the witness records
   them; every assumption must hold on every cycle and every cover literal
   on the last.  Returns the simulator at that last cycle. *)
let replay nl ~assumes ~cover (w : C.Cex.t) =
  let sim = Sim.create nl in
  List.iteri (fun i r -> Sim.poke_reg sim r w.C.Cex.init.(i)) (N.symbolic_registers nl);
  Array.iteri
    (fun cycle row ->
      if cycle > 0 then Sim.step sim;
      List.iteri (fun i s -> Sim.poke sim s row.(i)) (N.inputs nl);
      Sim.eval sim;
      List.iter
        (fun a ->
          if not (Sim.peek_bool sim a) then
            Alcotest.failf "witness breaks assumption %d at cycle %d" a cycle)
        assumes)
    w.C.Cex.inputs;
  List.iter
    (fun (s, pol) ->
      if Sim.peek_bool sim s <> pol then
        Alcotest.failf "cover literal %d is not %b on the witness's last cycle %d" s pol
          (C.Cex.length w - 1))
    cover;
  sim

let no_sim_config =
  {
    C.default_config with
    C.bmc_depth = 8;
    sim_episodes = 0;
    induction_max_k = 0;
  }

let test_simulated_patterns_reachable () =
  let rng = Random.State.make [| 4242 |] in
  for trial = 1 to 6 do
    let k1 = Random.State.int rng 64 and k2 = Random.State.int rng 64 in
    let nl = build_circuit k1 k2 in
    let chk = C.create ~config:no_sim_config ~assumes:[] nl in
    for run = 1 to 3 do
      let cycles = 1 + Random.State.int rng 7 in
      let pattern = sim_pattern nl ~seed:((trial * 17) + run) ~cycles in
      match C.check_cover chk pattern with
      | C.Reachable cex -> ignore (replay nl ~assumes:[] ~cover:pattern cex)
      | o ->
        Alcotest.failf "trial %d run %d: simulated pattern not BMC-reachable (%s)"
          trial run (C.outcome_tag o)
    done
  done

let test_impossible_pattern_unreachable () =
  (* acc >= 32 requires bit 5; demanding acc_hi with acc5 = 0 is absurd. *)
  let nl = build_circuit 21 9 in
  let chk = C.create ~config:no_sim_config ~assumes:[] nl in
  let s n = Option.get (N.find_named nl n) in
  match C.check_cover chk [ (s "acc_hi", true); (s "acc5", false) ] with
  | C.Unreachable _ -> ()
  | o -> Alcotest.failf "expected unreachable, got %s" (C.outcome_tag o)

let test_model_values_consistent () =
  (* When BMC finds a witness, its replay must satisfy the cover
     conjunction. *)
  let nl = build_circuit 13 5 in
  let chk = C.create ~config:no_sim_config ~assumes:[] nl in
  let s n = Option.get (N.find_named nl n) in
  let cover = [ (s "acc0", true); (s "acc1", false); (s "acc2", true) ] in
  match C.check_cover chk cover with
  | C.Reachable cex ->
    let sim = replay nl ~assumes:[] ~cover cex in
    let acc = Bitvec.to_int (Sim.peek sim (s "acc")) in
    Alcotest.(check int) "acc bits match cover" 0b101 (acc land 0b111)
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o)

let test_assume_respected_in_model () =
  (* Pin input a = 0 via an assumption; the accumulator still evolves, and
     every witness must satisfy the assumption at every cycle. *)
  let nl = build_circuit 63 1 in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let a = Option.get (N.find_named nl "a") in
  let a_zero = wire ~name:"a_zero" 1 in
  a_zero <== (a ==: zero 6);
  let chk = C.create ~config:no_sim_config ~assumes:[ a_zero ] nl in
  let cover = [ (Option.get (N.find_named nl "acc0"), true) ] in
  match C.check_cover chk cover with
  | C.Reachable cex ->
    ignore (replay nl ~assumes:[ a_zero ] ~cover cex);
    let pos = Option.get (List.find_index (( = ) a) (N.inputs nl)) in
    Array.iteri
      (fun c row ->
        Alcotest.(check int) (Printf.sprintf "a = 0 at cycle %d" c) 0
          (Bitvec.to_int row.(pos)))
      cex.C.Cex.inputs
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o)

let test_cse_hit_rate () =
  (* Unrolling the same combinational logic over several time steps must
     share gate encodings: the structural-hashing cache sees hits, and the
     CSE'd unrolling allocates fewer solver variables. *)
  let nl = build_circuit 21 9 in
  let b = Mc.Blast.create ~cse:true ~initial:`Reset ~assumes:[] nl in
  Mc.Blast.ensure_depth b 6;
  let hits, lookups = Mc.Blast.cse_stats b in
  Alcotest.(check bool) "cse hits" true (hits > 0);
  Alcotest.(check bool) "hits <= lookups" true (hits <= lookups);
  let nl' = build_circuit 21 9 in
  let b' = Mc.Blast.create ~cse:false ~initial:`Reset ~assumes:[] nl' in
  Mc.Blast.ensure_depth b' 6;
  Alcotest.(check bool) "cse off counts nothing" true
    (Mc.Blast.cse_stats b' = (0, 0));
  Alcotest.(check bool) "cse shrinks the encoding" true
    (Sat.Solver.nvars (Mc.Blast.solver b) < Sat.Solver.nvars (Mc.Blast.solver b'))

let test_cse_outcomes_agree () =
  (* CSE is an encoding-only change: the same circuit encoded with and
     without it gives the same Sat/Unsat answer for each cover at every
     depth, on a reachable cover and on an unreachable one. *)
  let answers cse =
    let nl = build_circuit 13 5 in
    let b = Mc.Blast.create ~cse ~initial:`Reset ~assumes:[] nl in
    let lit n ~time = Mc.Blast.lit1 b (Option.get (N.find_named nl n)) ~time in
    List.init 9 (fun time ->
        Mc.Blast.ensure_depth b time;
        let solve assumptions =
          match Sat.Solver.solve ~assumptions (Mc.Blast.solver b) with
          | Sat.Solver.Sat -> "sat"
          | Sat.Solver.Unsat -> "unsat"
          | Sat.Solver.Unknown -> "unknown"
        in
        ( solve [ lit "acc0" ~time; lit "acc2" ~time ],
          solve [ lit "acc_hi" ~time; Sat.Solver.negate (lit "acc5" ~time) ] ))
  in
  let on = answers true in
  Alcotest.(check (list (pair string string)))
    "cse on/off answers per depth" (answers false) on;
  Alcotest.(check bool) "the first cover is reachable" true
    (List.exists (fun (a, _) -> a = "sat") on);
  Alcotest.(check bool) "the second cover is unreachable at every depth" true
    (List.for_all (fun (_, b) -> b = "unsat") on)

(* Known bits strengthen the induction unrolling: under [`Free] a proven
   register bit is a constant instead of a free variable, so the unrolling
   with [?known] allocates fewer variables than the one without. *)
let test_known_bits_shrink_free () =
  let nl = (Designs.Gated.build ()).Designs.Meta.nl in
  let vars known =
    let b = Mc.Blast.create ?known ~initial:`Free ~assumes:[] nl in
    Mc.Blast.ensure_depth b 2;
    Sat.Solver.nvars (Mc.Blast.solver b)
  in
  let known = vars (Some (Hdl.Absint.known_bits nl)) and plain = vars None in
  Alcotest.(check bool)
    (Printf.sprintf "known bits: %d variables, without: %d" known plain)
    true (known < plain)

(* The encoding against the reference semantics: at depth 0 under
   [`Free], pin every source (input or register) to a corner value through
   solver assumptions; the model must then give every node the value
   [Netlist.eval_node] computes.  Checked with and without structural
   hashing, on every node kind at widths 1/62/63/64/70 and on [Fuzz.Gen]
   pipelines. *)
let encodings nl =
  List.map (fun cse -> (cse, Mc.Blast.create ~cse ~initial:`Free ~assumes:[] nl)) [ true; false ]

let encoding_agrees nl (cse, b) ~seed =
  let s = Mc.Blast.solver b in
  let rng = Random.State.make [| seed |] in
  let n = N.num_nodes nl in
  let order = N.comb_order nl in
  let sources = N.inputs nl @ N.registers nl in
  for p = 1 to 4 do
    let values = Array.make n (Bitvec.zero 1) in
    List.iter
      (fun src -> values.(src) <- Test_equiv.corner_value rng (N.width nl src))
      sources;
    let assumptions =
      List.concat_map
        (fun src ->
          Array.to_list
            (Array.mapi
               (fun i l -> if Bitvec.bit values.(src) i then l else Sat.Solver.negate l)
               (Mc.Blast.lits b src ~time:0)))
        sources
    in
    if Sat.Solver.solve ~assumptions s <> Sat.Solver.Sat then
      QCheck.Test.fail_reportf "%s: pattern %d has no model" (N.name nl) p;
    Array.iter
      (fun id ->
        match (N.node nl id).N.kind with
        | N.Input | N.Reg _ -> ()
        | _ -> values.(id) <- N.eval_node nl (Array.get values) id)
      order;
    Array.iteri
      (fun id want ->
        let got = Mc.Blast.model_value b id ~time:0 in
        if not (Bitvec.equal want got) then
          QCheck.Test.fail_reportf
            "%s (cse %b): node %d (%d bits), pattern %d: expected %a, got %a"
            (N.name nl) cse id (N.width nl id) p Bitvec.pp want Bitvec.pp got)
      values
  done;
  true

(* The every-kind encodings are large and seed-independent: built once,
   solved under each seed's patterns. *)
let every_kind =
  lazy
    (let nl = Test_equiv.every_kind_netlist () in
     (nl, encodings nl))

let qcheck_encoding_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3
       ~name:"encoding matches eval_node (every kind, Fuzz.Gen)"
       Test_equiv.arb_seed
       (fun seed ->
         let pipeline = (Fuzz.Gen.build (Fuzz.Gen.config_for ~seed 0)).Designs.Meta.nl in
         List.for_all
           (fun (nl, bs) -> List.for_all (encoding_agrees nl ~seed) bs)
           [ Lazy.force every_kind; (pipeline, encodings pipeline) ]))

let suite =
  ( "blast",
    [
      Alcotest.test_case "simulated patterns BMC-reachable" `Quick
        test_simulated_patterns_reachable;
      Alcotest.test_case "impossible pattern unreachable" `Quick
        test_impossible_pattern_unreachable;
      Alcotest.test_case "witness consistent with cover" `Quick
        test_model_values_consistent;
      Alcotest.test_case "assumptions hold along witnesses" `Quick
        test_assume_respected_in_model;
      Alcotest.test_case "cse hit rate" `Quick test_cse_hit_rate;
      Alcotest.test_case "cse outcomes agree" `Quick test_cse_outcomes_agree;
      Alcotest.test_case "known bits shrink the Free unrolling" `Quick
        test_known_bits_shrink_free;
      qcheck_encoding_differential;
    ] )
