(* Model-checker tests on small hand-built designs where ground truth is
   obvious: BMC witnesses, k-induction proofs, bounded verdicts, assumption
   handling, literal-conjunction covers, budget-driven undetermined
   outcomes, and SAT engines built on the first cache miss. *)

module N = Hdl.Netlist
module C = Mc.Checker

(* An 8-bit counter that increments when [go] is high. *)
let counter_design () =
  let nl = N.create "counter" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let go = input "go" 1 in
  let count = reg ~name:"count" ~width:8 () in
  count <== mux go (count +: of_int 8 1) count;
  let at5 = wire ~name:"at5" 1 in
  at5 <== eq_const count 5;
  let at200 = wire ~name:"at200" 1 in
  at200 <== eq_const count 200;
  let odd = wire ~name:"odd" 1 in
  odd <== bit count 0;
  (nl, go, at5, at200, odd)

let quick_config =
  { C.default_config with C.bmc_depth = 10; sim_episodes = 4; sim_cycles = 12 }

let test_reachable_with_witness () =
  let nl, _, at5, _, _ = counter_design () in
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  match C.check_cover chk [ (at5, true) ] with
  | C.Reachable cex ->
    (* count reaches 5 no earlier than cycle 5 *)
    let len = C.Cex.length cex in
    Alcotest.(check bool) "witness length sane" true (len >= 6 && len <= 13);
    Alcotest.(check int) "count value at end" 5
      (Bitvec.to_int (C.Cex.value_exn cex "count" ~cycle:(len - 1)))
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o)

let test_bounded_unreachable () =
  let nl, _, _, at200, _ = counter_design () in
  (* 200 needs 200 cycles; depth 10 cannot reach it, induction cannot prove
     it (the counter state space admits long simple paths), so we get a
     bounded verdict. *)
  let chk =
    C.create
      ~config:{ quick_config with C.induction_max_k = 1; sim_episodes = 2 }
      ~assumes:[] nl
  in
  (match C.check_cover chk [ (at200, true) ] with
  | C.Unreachable (C.Bounded d) -> Alcotest.(check int) "depth" 10 d
  | o -> Alcotest.failf "expected bounded-unreachable, got %s" (C.outcome_tag o))

let test_inductive_unreachable () =
  (* A 1-bit register stuck at 0: "reg = 1" is inductively unreachable. *)
  let nl = N.create "stuck" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let r = reg ~name:"r" ~width:1 () in
  r <== (r &: r);
  let bad = wire ~name:"bad" 1 in
  bad <== r;
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  match C.check_cover chk [ (bad, true) ] with
  | C.Unreachable (C.Inductive k) -> Alcotest.(check bool) "small k" true (k <= 1)
  | o -> Alcotest.failf "expected inductive, got %s" (C.outcome_tag o)

let test_assumes_constrain () =
  let nl, go, at5, _, _ = counter_design () in
  (* Assume go is always low: the counter never moves. *)
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let no_go = wire ~name:"no_go" 1 in
  no_go <== ~:go;
  let chk = C.create ~config:quick_config ~assumes:[ no_go ] nl in
  (match C.check_cover chk [ (at5, true) ] with
  | C.Unreachable _ -> ()
  | o -> Alcotest.failf "expected unreachable under assumption, got %s" (C.outcome_tag o))

let test_conjunction_and_negation () =
  let nl, _, at5, _, odd = counter_design () in
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  (* count = 5 and odd: consistent. *)
  (match C.check_cover chk [ (at5, true); (odd, true) ] with
  | C.Reachable _ -> ()
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o));
  (* count = 5 and not odd: contradictory. *)
  match C.check_cover chk [ (at5, true); (odd, false) ] with
  | C.Unreachable _ -> ()
  | o -> Alcotest.failf "expected unreachable, got %s" (C.outcome_tag o)

let test_stats_accumulate () =
  let nl, _, at5, _, odd = counter_design () in
  let chk = C.create ~config:quick_config ~assumes:[] nl in
  ignore (C.check_cover chk [ (at5, true) ]);
  ignore (C.check_cover chk [ (odd, true) ]);
  let s = C.stats chk in
  Alcotest.(check int) "two props" 2 s.C.Stats.n_props;
  Alcotest.(check int) "both reachable" 2 s.C.Stats.n_reachable;
  Alcotest.(check bool) "time recorded" true (s.C.Stats.total_time >= 0.)

let test_symbolic_init_reachability () =
  (* A symbolically initialized register makes "r = 0xAB" reachable at cycle
     0 even though no transition produces it. *)
  let nl = N.create "sym" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let r = reg_symbolic ~name:"r" ~width:8 () in
  r <== zero 8;
  let hit = wire ~name:"hit" 1 in
  hit <== eq_const r 0xAB;
  let chk =
    C.create ~config:{ quick_config with C.sim_episodes = 0 } ~assumes:[] nl
  in
  match C.check_cover chk [ (hit, true) ] with
  | C.Reachable cex ->
    Alcotest.(check int) "witness at cycle 0" 1 (C.Cex.length cex)
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o)

(* --- the shared induction unrolling ---------------------------------------- *)

let no_sim_config = { quick_config with C.sim_episodes = 0; induction_max_k = 3 }

let same_outcome a b =
  match (a, b) with
  | C.Reachable x, C.Reachable y -> C.Cex.equal x y
  | C.Unreachable p, C.Unreachable q -> p = q
  | C.Undetermined, C.Undetermined -> true
  | _ -> false

let describe = function
  | C.Unreachable (C.Inductive k) -> Printf.sprintf "unreachable(inductive %d)" k
  | C.Unreachable (C.Bounded d) -> Printf.sprintf "unreachable(bounded %d)" d
  | o -> C.outcome_tag o

(* A 2-bit saturating counter from reset 0: c' = (c = 3) ? 3 : c + 1.  Every
   value is reachable, and the self-loop at 3 means any frame beyond an
   earlier 3 repeats the state, so a simple-path constraint on a frame a
   query does not own would refute the query.  Likewise for the frame's
   assumes, under the assume c <> 3. *)
let saturating_counter () =
  let nl = N.create "sat2" in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let c = reg ~name:"c" ~width:2 () in
  let is v =
    let w = wire ~name:(Printf.sprintf "is%d" v) 1 in
    w <== eq_const c v;
    w
  in
  let is1 = is 1 and is2 = is 2 and is3 = is 3 in
  let not3 = wire ~name:"not3" 1 in
  not3 <== ~:is3;
  c <== mux is3 c (c +: of_int 2 1);
  (nl, is1, is2, is3, not3)

let test_shared_induction_saturating () =
  let nl, _, is2, is3, _ = saturating_counter () in
  let chk = C.create ~config:no_sim_config ~assumes:[] nl in
  let check name cover =
    match C.check_cover chk cover with
    | C.Reachable cex -> cex
    | o -> Alcotest.failf "%s: expected reachable, got %s" name (describe o)
  in
  let first = check "c = 3" [ (is3, true) ] in
  Alcotest.(check int) "c = 3 first holds at cycle 3" 4 (C.Cex.length first);
  ignore (check "c = 2" [ (is2, true) ]);
  let again = check "c = 3 again" [ (is3, true) ] in
  Alcotest.(check bool) "equal witnesses" true (C.Cex.equal first again);
  (* Under c <> 3, an assume on a frame the query does not own would refute
     c = 1 at k = 0 (its successors reach 3).  After c = 2 has grown the
     unrolling to frames 0..3, c = 1 must still need k = 2, as on a fresh
     unrolling. *)
  let nl, is1, is2, _, not3 = saturating_counter () in
  let chk = C.create ~config:no_sim_config ~assumes:[ not3 ] nl in
  ignore (C.check_cover chk [ (is2, true) ]);
  match C.check_cover chk [ (is1, true) ] with
  | C.Unreachable (C.Inductive 2) -> ()
  | o ->
    Alcotest.failf "c = 1 under c <> 3: expected unreachable(inductive 2), got %s"
      (describe o)

(* The counter under the assume not-go, with a checker over it. *)
let counter_no_go ?(config = no_sim_config) () =
  let nl, go, at5, at200, odd = counter_design () in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let no_go = wire ~name:"no_go" 1 in
  no_go <== ~:go;
  (C.create ~config ~assumes:[ no_go ] nl, at5, at200, odd)

(* Under not-go count never leaves 0, so count = 5 is 1-inductive only if
   frame 0's assume holds in every query. *)
let test_shared_induction_assumes () =
  let expect_inductive1 what chk cover =
    match C.check_cover chk cover with
    | C.Unreachable (C.Inductive 1) -> ()
    | o ->
      Alcotest.failf "%s: expected unreachable(inductive 1), got %s" what
        (describe o)
  in
  let fresh, at5, _, _ = counter_no_go () in
  expect_inductive1 "at5 on a fresh checker" fresh [ (at5, true) ];
  (* [odd] leaves the retired hypothesis "count@0 is even", which would
     refute at5's k = 0 query if it stayed active. *)
  let used, at5, at200, odd = counter_no_go () in
  expect_inductive1 "odd" used [ (odd, true) ];
  expect_inductive1 "at200" used [ (at200, true) ];
  expect_inductive1 "at5 after other covers" used [ (at5, true) ]

(* An induction solve that overruns [induction_conflicts] hands the cover
   to BMC and counts in [checker.ind_overruns]; with the default budget the
   same cover is 1-inductive and nothing overruns. *)
let test_induction_overruns_counted () =
  let run induction_conflicts =
    let chk, at5, _, _ =
      counter_no_go ~config:{ no_sim_config with C.induction_conflicts } ()
    in
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let o = C.check_cover chk [ (at5, true) ] in
        (describe o, Obs.Metrics.get "checker.ind_overruns"))
  in
  Alcotest.(check (pair string (option (float 0.))))
    "default budget" ("unreachable(inductive 1)", Some 0.)
    (run no_sim_config.C.induction_conflicts);
  Alcotest.(check (pair string (option (float 0.))))
    "no conflicts allowed" ("unreachable(bounded 10)", Some 1.) (run 0)

(* --- engines built on the first cache miss ---------------------------------- *)

(* Traced [f ()], with the metric snapshot it left. *)
let traced f =
  Test_obs.with_obs (fun () ->
      let r = f () in
      (r, Obs.Metrics.snapshot ()))

(* A swept checker builds its engine (sweep, known bits, BMC unrolling) on
   the first cover that reaches SAT.  A fresh checker whose covers all hit
   the store therefore sweeps and blasts nothing, and its first miss builds
   the engine and answers as a checker that never saw the store. *)
let test_engine_built_on_first_miss () =
  let nl, _, at5, at200, odd = counter_design () in
  let config = { no_sim_config with C.sweep = C.Sweep_on } in
  let store = Vcache.create () in
  let checker ?cache () = C.create ?cache ~config ~assumes:[] nl in
  let covers =
    [ [ (at5, true) ]; [ (at200, true) ]; [ (odd, true) ]; [ (at5, true); (odd, false) ] ]
  in
  let check_all chk = List.map (C.check_cover chk) covers in
  let cold, cold_metrics = traced (fun () -> check_all (checker ~cache:store ())) in
  let metric m snapshot = Option.value (List.assoc_opt m snapshot) ~default:0. in
  Alcotest.(check bool) "cold pass sweeps with SAT queries" true
    (metric "equiv.sat_queries" cold_metrics > 0.);
  let warm = checker ~cache:store () in
  let outcomes, warm_metrics = traced (fun () -> check_all warm) in
  Alcotest.(check int) "every warm cover hits" (List.length covers)
    (C.stats warm).C.Stats.n_cache_hits;
  Alcotest.(check bool) "warm outcomes equal cold" true
    (List.for_all2 same_outcome cold outcomes);
  Alcotest.(check (list string)) "all-hit checker: no sweep, no SAT variables" []
    (List.filter_map
       (fun (k, _) ->
         if String.starts_with ~prefix:"equiv." k || k = "sat.vars" then Some k else None)
       warm_metrics);
  (* The first miss after the hits. *)
  let cover = [ (at5, true); (odd, true) ] in
  let first_miss, miss_metrics = traced (fun () -> C.check_cover warm cover) in
  Alcotest.(check bool) "the first miss builds the swept engine" true
    (metric "equiv.sat_queries" miss_metrics > 0.);
  let uncached = C.check_cover (checker ()) cover in
  Alcotest.(check string) "first miss: reachable" "reachable" (C.outcome_tag first_miss);
  Alcotest.(check bool) "first miss: same outcome and witness as uncached" true
    (same_outcome first_miss uncached)

(* Small random assume-free designs: a few registers (reset or symbolic
   init, some with enables) over one or two narrow inputs, and named 1-bit
   covers.  [max_free] bounds the symbolic-init bits plus the input bits of
   [depth + 1] cycles, so brute force can enumerate every assignment. *)
type rand_design = {
  rd_nl : N.t;
  rd_covers : N.signal list;
  rd_depth : int;
}

let random_design ~max_free seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nl = N.create "rand" in
  let w = 2 + int 2 in
  let bv v = Bitvec.of_int ~width:w v in
  let n_in = 1 + int 2 in
  let in_bits = ref 0 in
  let ins =
    List.init n_in (fun i ->
        let iw = 1 + int 2 in
        in_bits := !in_bits + iw;
        let x = N.input nl (Printf.sprintf "in%d" i) iw in
        if iw = w then x else N.concat nl [ N.const nl (Bitvec.zero (w - iw)); x ])
  in
  let sym_bits = ref 0 in
  let regs =
    List.init
      (1 + int 3)
      (fun i ->
        let init =
          if !sym_bits + w <= 4 && int 3 = 0 then begin
            sym_bits := !sym_bits + w;
            N.Init_symbolic
          end
          else N.Init_value (bv (int (1 lsl w)))
        in
        N.reg nl ~name:(Printf.sprintf "r%d" i) ~init ~width:w ())
  in
  let pick l = List.nth l (int (List.length l)) in
  let rec expr d =
    if d = 0 then
      match int 4 with
      | 0 -> N.const nl (bv (int (1 lsl w)))
      | 1 -> pick ins
      | _ -> pick regs
    else
      let a = expr (d - 1) and b = expr (d - 1) in
      match int 9 with
      | 0 -> N.op2 nl N.And a b
      | 1 -> N.op2 nl N.Or a b
      | 2 -> N.op2 nl N.Xor a b
      | 3 -> N.op2 nl N.Add a b
      | 4 -> N.op2 nl N.Sub a b
      | 5 -> N.not_ nl a
      | 6 -> N.mux nl ~sel:(N.op2 nl N.Ult a b) ~on_true:a ~on_false:b
      | 7 -> N.mux nl ~sel:(N.extract nl ~hi:0 ~lo:0 b) ~on_true:a ~on_false:(pick regs)
      | _ -> N.concat nl [ N.extract nl ~hi:(w - 2) ~lo:0 a; N.reduce_or nl b ]
  in
  List.iter
    (fun r ->
      N.connect_reg nl r (expr (1 + int 2));
      if int 3 = 0 then N.connect_enable nl r (N.extract nl ~hi:0 ~lo:0 (expr 1)))
    regs;
  (* Covers mostly read register state, so most hits need a few cycles. *)
  let is_const r = N.op2 nl N.Eq r (N.const nl (bv (int (1 lsl w)))) in
  let covers =
    List.init
      (3 + int 3)
      (fun i ->
        let p =
          match int 4 with
          | 0 -> is_const (pick regs)
          | 1 -> is_const (N.op2 nl (pick [ N.Xor; N.Add; N.Or ]) (pick regs) (pick regs))
          | 2 ->
            N.op2 nl N.And (is_const (pick regs))
              (N.extract nl ~hi:(w - 1) ~lo:(w - 1) (pick regs))
          | _ -> N.reduce_and nl (expr (int 2))
        in
        let c = N.wire nl ~name:(Printf.sprintf "cov%d" i) 1 in
        N.connect_wire nl c p;
        c)
  in
  let depth = min 5 (((max_free - !sym_bits) / !in_bits) - 1) in
  { rd_nl = nl; rd_covers = covers; rd_depth = depth }

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let qcheck_shared_matches_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"shared induction matches fresh checkers"
       arb_seed (fun seed ->
         let d = random_design ~max_free:40 seed in
         let config = { no_sim_config with C.bmc_depth = d.rd_depth } in
         let long = C.create ~config ~assumes:[] d.rd_nl in
         (* Each cover alone and negated, then each again, so later covers
            meet frames and retired hypotheses left by earlier ones. *)
         let covers =
           List.concat_map (fun c -> [ [ (c, true) ]; [ (c, false) ] ]) d.rd_covers
         in
         List.for_all
           (fun cover ->
             let shared = C.check_cover long cover in
             let fresh =
               C.check_cover (C.create ~config ~assumes:[] d.rd_nl) cover
             in
             same_outcome shared fresh
             || QCheck.Test.fail_reportf "seed %d: shared %s, fresh %s" seed
                  (describe shared) (describe fresh))
           (covers @ covers)))

(* --- canonical witnesses against brute force ------------------------------- *)

(* The free bits of a hit at [upto], in the documented canonical order:
   symbolic-init register bits in [Netlist.registers] order, then input bits
   time-major in [Netlist.inputs] order, each LSB first.  Returns the first
   assignment (0 preferred, earlier bits more significant) whose simulation
   hits [cover] at cycle [upto], as the simulator trace of every named
   signal. *)
let brute_force_min nl cover ~upto =
  let sym =
    List.filter
      (fun r ->
        match (N.node nl r).N.kind with
        | N.Reg { init = N.Init_symbolic; _ } -> true
        | _ -> false)
      (N.registers nl)
  in
  let inputs = N.inputs nl in
  let bits_of l = List.fold_left (fun acc s -> acc + N.width nl s) 0 l in
  let nbits = bits_of sym + ((upto + 1) * bits_of inputs) in
  let named =
    N.fold_nodes nl ~init:[] ~f:(fun acc n ->
        match n.N.name with Some name -> (name, n.N.id) :: acc | None -> acc)
  in
  let sim = Sim.create nl in
  (* Bit [i] of the order is bit [nbits - 1 - i] of [x]. *)
  let run x ~record =
    Sim.reset sim;
    let pos = ref 0 in
    let take w =
      let v = ref 0 in
      for b = 0 to w - 1 do
        if (x lsr (nbits - 1 - (!pos + b))) land 1 = 1 then v := !v lor (1 lsl b)
      done;
      pos := !pos + w;
      Bitvec.of_int ~width:w !v
    in
    List.iter (fun r -> Sim.poke_reg sim r (take (N.width nl r))) sym;
    let rec cycle c rows =
      List.iter (fun i -> Sim.poke sim i (take (N.width nl i))) inputs;
      Sim.eval sim;
      let rows =
        if record then List.map (fun (n, s) -> (n, Sim.peek sim s)) named :: rows
        else rows
      in
      if c = upto then (Sim.peek_bool sim cover, List.rev rows)
      else begin
        Sim.step sim;
        cycle (c + 1) rows
      end
    in
    cycle 0 []
  in
  let rec search x =
    if x >= 1 lsl nbits then None
    else if fst (run x ~record:false) then Some (snd (run x ~record:true))
    else search (x + 1)
  in
  search 0

let qcheck_canonical_witness_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80
       ~name:"canonical witness is the brute-force lexicographic minimum" arb_seed
       (fun seed ->
         let d = random_design ~max_free:14 seed in
         let config = { no_sim_config with C.bmc_depth = d.rd_depth } in
         let chk = C.create ~config ~assumes:[] d.rd_nl in
         List.for_all
           (fun cover ->
             let rec first_hit t =
               if t > d.rd_depth then None
               else
                 match brute_force_min d.rd_nl cover ~upto:t with
                 | None -> first_hit (t + 1)
                 | hit -> hit
             in
             match (C.check_cover chk [ (cover, true) ], first_hit 0) with
             | C.Unreachable _, None -> true
             | C.Reachable cex, Some rows ->
               if C.Cex.length cex <> List.length rows then
                 QCheck.Test.fail_reportf
                   "seed %d cover %d: witness length %d, brute force %d" seed cover
                   (C.Cex.length cex) (List.length rows);
               List.iteri
                 (fun cycle row ->
                   List.iter
                     (fun (name, v) ->
                       let got = C.Cex.value_exn cex name ~cycle in
                       if not (Bitvec.equal got v) then
                         QCheck.Test.fail_reportf
                           "seed %d cover %d: %s@%d is %s, brute force %s" seed cover
                           name cycle (Bitvec.to_hex_string got)
                           (Bitvec.to_hex_string v))
                     row)
                 rows;
               true
             | o, hit ->
               QCheck.Test.fail_reportf "seed %d cover %d: checker %s, brute force %s"
                 seed cover (describe o)
                 (match hit with
                 | Some rows -> Printf.sprintf "hit at %d" (List.length rows - 1)
                 | None -> "no hit"))
           d.rd_covers))

let suite =
  ( "mc",
    [
      Alcotest.test_case "reachable with witness" `Quick test_reachable_with_witness;
      Alcotest.test_case "bounded unreachable" `Quick test_bounded_unreachable;
      Alcotest.test_case "inductive unreachable" `Quick test_inductive_unreachable;
      Alcotest.test_case "assumptions constrain" `Quick test_assumes_constrain;
      Alcotest.test_case "conjunction and negation" `Quick test_conjunction_and_negation;
      Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
      Alcotest.test_case "symbolic initial state" `Quick test_symbolic_init_reachability;
      Alcotest.test_case "shared induction: saturating counter" `Quick
        test_shared_induction_saturating;
      Alcotest.test_case "shared induction: frame-0 assumes" `Quick
        test_shared_induction_assumes;
      Alcotest.test_case "induction overruns counted" `Quick
        test_induction_overruns_counted;
      Alcotest.test_case "engine built on the first cache miss" `Quick
        test_engine_built_on_first_miss;
      qcheck_shared_matches_fresh;
      qcheck_canonical_witness_oracle;
    ] )
