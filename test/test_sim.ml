(* Simulator tests: register/enable semantics, symbolic-init randomization,
   reset, the [run] loop's per-cycle order, and the compiled, hash-consed
   evaluator (full and cone-only) against the reference node semantics
   ([Netlist.eval_node]) on random netlists that mix narrow and wide values
   and repeat their own structure. *)

module N = Hdl.Netlist

let counter_netlist () =
  let nl = N.create "counter" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let en = input "en" 1 in
  let count = reg ~name:"count" ~width:8 () in
  count <== mux en (count +: of_int 8 1) count;
  (nl, en, count)

let test_counter () =
  let nl, en, count = counter_netlist () in
  let sim = Sim.create nl in
  for _ = 1 to 5 do
    Sim.poke sim en (Bitvec.one 1);
    Sim.eval sim;
    Sim.step sim
  done;
  Sim.poke sim en (Bitvec.zero 1);
  Sim.eval sim;
  Alcotest.(check int) "counted 5" 5 (Bitvec.to_int (Sim.peek sim count));
  Sim.step sim;
  Sim.eval sim;
  Alcotest.(check int) "hold when disabled" 5 (Bitvec.to_int (Sim.peek sim count));
  Alcotest.(check int) "cycle count" 6 (Sim.cycle sim);
  Sim.reset sim;
  Sim.eval sim;
  Alcotest.(check int) "reset clears" 0 (Bitvec.to_int (Sim.peek sim count));
  Alcotest.(check int) "reset cycle" 0 (Sim.cycle sim)

let test_symbolic_init () =
  let nl = N.create "sym" in
  let r = N.reg nl ~name:"r" ~init:N.Init_symbolic ~width:32 () in
  N.connect_reg nl r r;
  let v1 =
    let sim = Sim.create ~seed:1 nl in
    Sim.eval sim;
    Sim.peek sim r
  in
  let v2 =
    let sim = Sim.create ~seed:2 nl in
    Sim.eval sim;
    Sim.peek sim r
  in
  let v1' =
    let sim = Sim.create ~seed:1 nl in
    Sim.eval sim;
    Sim.peek sim r
  in
  Alcotest.(check bool) "seeds differ" false (Bitvec.equal v1 v2);
  Alcotest.(check bool) "same seed reproduces" true (Bitvec.equal v1 v1')

let test_poke_reg () =
  let nl, en, count = counter_netlist () in
  let sim = Sim.create nl in
  Sim.poke_reg sim count (Bitvec.of_int ~width:8 41);
  Sim.poke sim en (Bitvec.one 1);
  Sim.eval sim;
  Sim.step sim;
  Sim.eval sim;
  Alcotest.(check int) "continues from poked value" 42
    (Bitvec.to_int (Sim.peek sim count));
  Alcotest.(check bool) "poke_reg rejects inputs" true
    (try
       Sim.poke_reg sim en (Bitvec.one 1);
       false
     with Invalid_argument _ -> true)

(* [Sim.run]'s cycle: the stimulus pokes, logic is evaluated, the observer
   reads that cycle's values, and only then does the clock step. *)
let test_run () =
  let nl, en, count = counter_netlist () in
  let sim = Sim.create nl in
  let seen = ref [] in
  Sim.run sim ~cycles:4
    ~stimulus:(fun s c -> Sim.poke s en (Bitvec.of_int ~width:1 (c mod 2)))
    ~observe:(fun s c ->
      seen := (c, Sim.peek_bool s en, Bitvec.to_int (Sim.peek s count)) :: !seen);
  Alcotest.(check (list (triple int bool int)))
    "cycle, en, count" [ (0, false, 0); (1, true, 0); (2, false, 1); (3, true, 1) ]
    (List.rev !seen);
  Alcotest.(check int) "four clock edges" 4 (Sim.cycle sim)

(* --- compiled evaluator vs the reference semantics ------------------------ *)

(* A random netlist over every node kind.  Widths come from 1-130 with extra
   weight on 1 and on 61-65, around the 62-bit boundary between unboxed and
   [Bitvec.t] values, so narrow and wide nodes mix in Concat, Extract, the
   comparisons and Mux.  Registers get a symbolic or concrete init and, half
   the time, an enable; wires are declared early and driven at the end by
   any node outside their own cone.  For the simulator's hash-consing, the
   netlist is full of structural duplicates: every node is emitted twice
   with the same operands, binary operators a third time with their
   operands swapped, constants twice, an extract again at another offset of
   the same width, and wire chains two deep. *)
let random_netlist seed =
  let rng = Random.State.make [| seed |] in
  let nl = N.create "diff" in
  let int n = Random.State.int rng n in
  let pick_width () =
    match int 4 with
    | 0 -> 1
    | 1 -> 61 + int 5
    | 2 -> 1 + int 130
    | _ -> 1 + int 16
  in
  let pool = ref [] in
  let add s =
    pool := s :: !pool;
    s
  in
  let one_of l = List.nth l (int (List.length l)) in
  let new_source w =
    if Random.State.bool rng then N.input nl (Printf.sprintf "i%d" (N.num_nodes nl)) w
    else begin
      let c = Bitvec.random rng w in
      ignore (add (N.const nl c));
      N.const nl c
    end
  in
  let source w = add (new_source w) in
  let of_width w =
    match List.filter (fun s -> N.width nl s = w) !pool with
    | [] -> source w
    | l -> if int 4 = 0 then source w else one_of l
  in
  let narrowish () =
    match List.filter (fun s -> N.width nl s <= 70) !pool with
    | [] -> source (pick_width ())
    | l -> one_of l
  in
  for _ = 1 to 4 do
    ignore (source (pick_width ()))
  done;
  let regs =
    List.init 4 (fun k ->
        let w = pick_width () in
        let init =
          if Random.State.bool rng then N.Init_symbolic
          else N.Init_value (Bitvec.random rng w)
        in
        add (N.reg nl ~name:(Printf.sprintf "r%d" k) ~init ~width:w ()))
  in
  let wires = List.init 2 (fun _ -> add (N.wire nl (pick_width ()))) in
  let ops = N.[| And; Or; Xor; Add; Sub; Mul; Eq; Ult; Slt |] in
  let twice f =
    ignore (add (f ()));
    f ()
  in
  let link s =
    let w = N.wire nl (N.width nl s) in
    N.connect_wire nl w s;
    w
  in
  for _ = 1 to 40 do
    let a = one_of !pool in
    let w = N.width nl a in
    ignore
      (add
         (match int 9 with
         | 0 -> twice (fun () -> N.not_ nl a)
         | 1 | 2 ->
           let o = ops.(int (Array.length ops)) and b = of_width w in
           ignore (add (N.op2 nl o b a));
           twice (fun () -> N.op2 nl o a b)
         | 3 ->
           let sel = of_width 1 and on_false = of_width w in
           twice (fun () -> N.mux nl ~sel ~on_true:a ~on_false)
         | 4 ->
           let lo = int w in
           let hi = lo + int (w - lo) in
           if lo > 0 then ignore (add (N.extract nl ~hi:(hi - 1) ~lo:(lo - 1) a));
           twice (fun () -> N.extract nl ~hi ~lo a)
         | 5 ->
           let parts = List.init (2 + int 3) (fun _ -> narrowish ()) in
           twice (fun () -> N.concat nl parts)
         | 6 ->
           let use_or = Random.State.bool rng in
           twice (fun () -> if use_or then N.reduce_or nl a else N.reduce_and nl a)
         | 7 -> link (add (link a))
         | _ -> new_source (pick_width ())))
  done;
  List.iter
    (fun wire ->
      let w = N.width nl wire in
      let outside s = s <> wire && not (Hashtbl.mem (N.comb_cone nl [ s ]) wire) in
      let driver =
        match List.filter (fun s -> N.width nl s = w && outside s) !pool with
        | [] -> N.const nl (Bitvec.random rng w)
        | l -> one_of l
      in
      N.connect_wire nl wire driver)
    wires;
  List.iter
    (fun r ->
      N.connect_reg nl r (of_width (N.width nl r));
      if Random.State.bool rng then N.connect_enable nl r (of_width 1))
    regs;
  nl

let diff_cycles = 24

(* The documented simulator, written out over [Netlist.eval_node]: one PRNG
   [[| seed; 0x5eed |]] draws the symbolic-init registers in node-id order,
   then every cycle's inputs in [Netlist.inputs] order.  Returns every
   node's value on every cycle. *)
let reference nl ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let n = N.num_nodes nl in
  let kind s = (N.node nl s).N.kind in
  let state = Array.make n (Bitvec.zero 1) in
  for s = 0 to n - 1 do
    match kind s with
    | N.Reg { init = N.Init_value v; _ } -> state.(s) <- v
    | N.Reg { init = N.Init_symbolic; _ } -> state.(s) <- Bitvec.random rng (N.width nl s)
    | _ -> ()
  done;
  let values = Array.make n (Bitvec.zero 1) in
  let order = N.comb_order nl in
  let rows = Array.make diff_cycles [||] in
  for c = 0 to diff_cycles - 1 do
    List.iter (fun i -> values.(i) <- Bitvec.random rng (N.width nl i)) (N.inputs nl);
    Array.iter
      (fun s ->
        match kind s with
        | N.Reg _ -> values.(s) <- state.(s)
        | _ -> values.(s) <- N.eval_node nl (Array.get values) s)
      order;
    rows.(c) <- Array.copy values;
    N.iter_nodes nl (fun nd ->
        match nd.N.kind with
        | N.Reg { next = Some nx; enable; _ } ->
          let on =
            match enable with None -> true | Some en -> not (Bitvec.is_zero values.(en))
          in
          if on then state.(nd.N.id) <- values.(nx)
        | _ -> ())
  done;
  rows

let simulate sim =
  let n = N.num_nodes (Sim.netlist sim) in
  let rows = Array.make diff_cycles [||] in
  for c = 0 to diff_cycles - 1 do
    Sim.poke_random_inputs sim;
    Sim.eval sim;
    rows.(c) <- Array.init n (Sim.peek sim);
    Sim.step sim
  done;
  rows

let same_rows nl ~what expected got =
  Array.iteri
    (fun c row ->
      Array.iteri
        (fun s v ->
          if not (Bitvec.equal v got.(c).(s)) then
            QCheck.Test.fail_reportf "%s: node %d (%d bits), cycle %d: expected %a, got %a"
              what s (N.width nl s) c Bitvec.pp v Bitvec.pp got.(c).(s))
        row)
    expected;
  true

(* [eval_cone] before each cycle's full [eval]: a different node's cone
   each cycle, and every node in it must already read its reference value
   for the cycle. *)
let cones_agree nl ~seed expected =
  let sim = Sim.create ~seed nl in
  let n = N.num_nodes nl in
  Array.iteri
    (fun c row ->
      Sim.poke_random_inputs sim;
      let target = ((c * 7919) + seed) mod n in
      Sim.eval_cone sim target;
      Hashtbl.iter
        (fun s () ->
          let got = Sim.peek sim s in
          if not (Bitvec.equal row.(s) got) then
            QCheck.Test.fail_reportf
              "eval_cone %d: node %d (%d bits), cycle %d: expected %a, got %a" target s
              (N.width nl s) c Bitvec.pp row.(s) Bitvec.pp got)
        (N.comb_cone nl [ target ]);
      Sim.eval sim;
      Sim.step sim)
    expected;
  true

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000)

let qcheck_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"compiled evaluator matches the reference semantics" arb_seed
       (fun seed ->
         let nl = random_netlist seed in
         let expected = reference nl ~seed in
         same_rows nl ~what:"create" expected (simulate (Sim.create ~seed nl))
         && cones_agree nl ~seed expected))

(* [reset ~seed] on a used instance is indistinguishable from a fresh
   [create ~seed]: every value reads zero before the first eval, and the
   episode replays exactly. *)
let qcheck_reset_reuse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"reset ~seed reproduces create ~seed" arb_seed
       (fun seed ->
         let nl = random_netlist seed in
         let sim = Sim.create ~seed:(seed + 1) nl in
         ignore (simulate sim);
         let r = List.hd (N.registers nl) in
         Sim.poke_reg sim r (Bitvec.ones (N.width nl r));
         Sim.reset ~seed sim;
         let fresh = Sim.create ~seed nl in
         let peeks s = Array.init (N.num_nodes nl) (Sim.peek s) in
         ignore (same_rows nl ~what:"before eval" [| peeks fresh |] [| peeks sim |]);
         Sim.cycle sim = 0
         && same_rows nl ~what:"reset" (simulate fresh) (simulate sim)))

let suite =
  ( "sim",
    [
      Alcotest.test_case "counter with enable mux" `Quick test_counter;
      Alcotest.test_case "symbolic init randomization" `Quick test_symbolic_init;
      Alcotest.test_case "poke_reg" `Quick test_poke_reg;
      Alcotest.test_case "run: stimulus, eval, observe, step" `Quick test_run;
      qcheck_differential;
      qcheck_reset_reuse;
    ] )
