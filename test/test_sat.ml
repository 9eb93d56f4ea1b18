(* SAT solver tests: hand-built instances, pigeonhole UNSAT, assumption
   handling, conflict budgets, and a differential qcheck against a
   brute-force evaluator on random small CNFs. *)

module S = Sat.Solver

let mk nvars clauses =
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  s

let lit v pol = if pol then S.pos v else S.neg_of_var v

let test_trivial () =
  let s = mk 1 [ [ S.pos 0 ] ] in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "model" true (S.value s 0);
  let s = mk 1 [ [ S.pos 0 ]; [ S.neg_of_var 0 ] ] in
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let s = mk 0 [ [] ] in
  Alcotest.(check bool) "empty clause" true (S.solve s = S.Unsat)

let test_chain_implications () =
  (* x0 -> x1 -> ... -> x19, x0 forced true. *)
  let n = 20 in
  let clauses =
    [ S.pos 0 ]
    :: List.init (n - 1) (fun i -> [ S.neg_of_var i; S.pos (i + 1) ])
  in
  let s = mk n clauses in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "x%d" i) true (S.value s i)
  done

let php holes =
  (* holes+1 pigeons into [holes] holes: classic UNSAT family. *)
  let var p h = (p * holes) + h in
  let s = S.create () in
  for _ = 0 to ((holes + 1) * holes) - 1 do
    ignore (S.new_var s)
  done;
  for p = 0 to holes do
    S.add_clause s (List.init holes (fun h -> S.pos (var p h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to holes do
      for p2 = p1 + 1 to holes do
        S.add_clause s [ S.neg_of_var (var p1 h); S.neg_of_var (var p2 h) ]
      done
    done
  done;
  s

(* php 6 and php 7 also pin the search trajectory: any edit to the CDCL
   loop (decision order, restarts, learning, the DB-reduction trigger)
   that changes which conflicts the search visits moves these counts.
   php 7 is the smallest pigeonhole instance whose search reduces the DB. *)
let test_pigeonhole () =
  Alcotest.(check bool) "php5 unsat" true (S.solve (php 5) = S.Unsat);
  let s = php 6 in
  Alcotest.(check bool) "php6 unsat" true (S.solve s = S.Unsat);
  Alcotest.(check int) "php6 conflicts" 1020 (S.num_conflicts s);
  Alcotest.(check int) "php6 decisions" 1247 (S.num_decisions s);
  Alcotest.(check int) "php6 propagations" 13427 (S.num_propagations s);
  let s = php 7 in
  Alcotest.(check bool) "php7 unsat" true (S.solve s = S.Unsat);
  Alcotest.(check int) "php7 conflicts" 5405 (S.num_conflicts s);
  Alcotest.(check int) "php7 decisions" 6582 (S.num_decisions s);
  Alcotest.(check int) "php7 propagations" 73196 (S.num_propagations s);
  Alcotest.(check int) "php7 reduces" 1 (S.num_reduces s)

let test_budget () =
  let s = php 9 in
  (* A tiny conflict budget must give up. *)
  Alcotest.(check bool) "unknown under budget" true
    (S.solve ~max_conflicts:10 s = S.Unknown);
  (* The solver stays usable afterwards. *)
  Alcotest.(check bool) "still solvable" true (S.solve (php 5) = S.Unsat)

let test_assumptions () =
  let s = mk 3 [ [ S.pos 0; S.pos 1 ]; [ S.neg_of_var 2; S.pos 0 ] ] in
  Alcotest.(check bool) "sat free" true (S.solve s = S.Sat);
  Alcotest.(check bool) "unsat under assumptions" true
    (S.solve ~assumptions:[ S.neg_of_var 0; S.neg_of_var 1 ] s = S.Unsat);
  Alcotest.(check bool) "sat again" true
    (S.solve ~assumptions:[ S.neg_of_var 0 ] s = S.Sat);
  Alcotest.(check bool) "assumption forced x1" true (S.value s 1);
  Alcotest.(check bool) "assumption pair x2 -> x0" true
    (S.solve ~assumptions:[ S.pos 2; S.neg_of_var 0 ] s = S.Unsat);
  (* Incremental: add a clause after solving. *)
  S.add_clause s [ S.neg_of_var 0 ];
  S.add_clause s [ S.neg_of_var 1 ];
  Alcotest.(check bool) "now unsat" true (S.solve s = S.Unsat)

(* Differential testing against brute force. *)
let eval_clause asn c = List.exists (fun l -> asn.(S.var_of l) = S.is_pos l) c

let brute_force nvars clauses =
  let asn = Array.make (max nvars 1) false in
  let rec go v =
    if v = nvars then List.for_all (eval_clause asn) clauses
    else begin
      asn.(v) <- false;
      go (v + 1)
      ||
      (asn.(v) <- true;
       go (v + 1))
    end
  in
  go 0

let arb_cnf =
  QCheck.make
    ~print:(fun (nv, cls) ->
      Printf.sprintf "nv=%d cls=%s" nv
        (String.concat "; "
           (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls)))
    QCheck.Gen.(
      int_range 1 10 >>= fun nv ->
      list_size (int_range 1 40)
        (list_size (int_range 1 4)
           (int_range 0 ((2 * nv) - 1)))
      >>= fun cls -> return (nv, cls))

(* --- learnt-DB reduction ------------------------------------------------ *)

let test_reduce_db_shrinks () =
  (* Drive php 8 under a budget large enough to accumulate learnt clauses
     past the (small) limit; the automatic reduction must fire and shrink
     the DB below its peak. *)
  let s = php 8 in
  S.set_learnt_limit s 50;
  ignore (S.solve ~max_conflicts:2_000 s);
  Alcotest.(check bool) "reduce fired" true (S.num_reduces s > 0);
  (* Learning resumes after the last automatic reduce, so compare around an
     explicit one: the DB must shrink (php learnt clauses are long and
     high-LBD, so the removable set is non-empty). *)
  let before = S.num_learnts s in
  S.reduce_db s;
  Alcotest.(check bool) "manual reduce shrinks" true (S.num_learnts s < before);
  Alcotest.(check bool) "peak above current" true
    (S.learnt_peak s > S.num_learnts s);
  (* The solver stays sound after reductions. *)
  Alcotest.(check bool) "php5 still unsat" true (S.solve (php 5) = S.Unsat)

(* A clause longer than a store chunk (2^15 words) gets a chunk of its own;
   the clauses around it, a reduction and the next solves still work. *)
let test_long_clause () =
  let n = 40_000 in
  let s = mk n [] in
  S.add_clause s (List.init n S.neg_of_var);
  for v = 0 to n - 2 do
    S.add_clause s [ S.neg_of_var v; S.pos (v + 1) ]
  done;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "model falsifies x0" false (S.value s 0);
  S.reduce_db s;
  Alcotest.(check bool) "x0 forces every var: unsat" true
    (S.solve ~assumptions:[ S.pos 0 ] s = S.Unsat);
  S.add_clause s [ S.pos 0 ];
  Alcotest.(check bool) "unit x0: unsat" true (S.solve s = S.Unsat)

(* --- model guard -------------------------------------------------------- *)

let test_model_guard () =
  let expect_no_model f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  (* Sat: model readable. *)
  let s = mk 2 [ [ S.pos 0 ]; [ S.neg_of_var 1 ] ] in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "has_model" true (S.has_model s);
  Alcotest.(check bool) "model x0" true (S.value s 0);
  (* Unsat: reads must raise instead of returning stale phase. *)
  S.add_clause s [ S.neg_of_var 0 ];
  Alcotest.(check bool) "model survives add_clause" true (S.has_model s);
  Alcotest.(check bool) "now unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "no model" false (S.has_model s);
  expect_no_model (fun () -> S.value s 0);
  expect_no_model (fun () -> S.lit_value s (S.pos 0));
  (* Unknown: same guard. *)
  let s = php 9 in
  Alcotest.(check bool) "unknown" true (S.solve ~max_conflicts:10 s = S.Unknown);
  Alcotest.(check bool) "no model after unknown" false (S.has_model s);
  expect_no_model (fun () -> S.value s 0)

(* Random assumption sequences: a CNF plus several queries, each a list of
   assumption literals. *)
let arb_cnf_queries =
  QCheck.make
    ~print:(fun (nv, cls, qs) ->
      Printf.sprintf "nv=%d cls=%s qs=%s" nv
        (String.concat "; "
           (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls))
        (String.concat "; "
           (List.map (fun q -> String.concat "," (List.map string_of_int q)) qs)))
    QCheck.Gen.(
      int_range 1 12 >>= fun nv ->
      list_size (int_range 1 30)
        (list_size (int_range 1 4) (int_range 0 ((2 * nv) - 1)))
      >>= fun cls ->
      list_size (int_range 1 5)
        (list_size (int_range 0 3) (int_range 0 ((2 * nv) - 1)))
      >>= fun qs -> return (nv, cls, qs))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"solver agrees with brute force" arb_cnf
         (fun (nv, cls) ->
           let s = mk nv cls in
           match S.solve s with
           | S.Sat ->
             (* verify the model *)
             List.for_all
               (fun c -> List.exists (fun l -> S.lit_value s l) c)
               cls
             && brute_force nv cls
           | S.Unsat -> not (brute_force nv cls)
           | S.Unknown -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"assumptions consistent with added units"
         arb_cnf (fun (nv, cls) ->
           let a = S.pos 0 in
           let s1 = mk nv cls in
           let r1 = S.solve ~assumptions:[ a ] s1 in
           let s2 = mk nv (cls @ [ [ a ] ]) in
           let r2 = S.solve s2 in
           r1 = r2));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"incremental = fresh per query = brute force" arb_cnf_queries
         (fun (nv, cls, qs) ->
           (* One incremental solver answers the whole assumption sequence;
              a fresh solver (and brute force over clauses + assumption
              units) must agree on every query. *)
           let inc = mk nv cls in
           List.for_all
             (fun q ->
               let r_inc = S.solve ~assumptions:q inc in
               let r_fresh = S.solve ~assumptions:q (mk nv cls) in
               let r_brute =
                 brute_force nv (cls @ List.map (fun l -> [ l ]) q)
               in
               r_inc = r_fresh
               &&
               match r_inc with
               | S.Sat -> r_brute
               | S.Unsat -> not r_brute
               | S.Unknown -> false)
             qs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"incremental under aggressive reduce_db = brute force"
         arb_cnf_queries (fun (nv, cls, qs) ->
           (* Reductions at non-zero levels, with locked reasons, on one
              solver across solves: every answer matches brute force and
              every model satisfies the clauses and the assumptions. *)
           let s = mk nv cls in
           S.set_learnt_limit s 1;
           List.for_all
             (fun q ->
               let brute = brute_force nv (cls @ List.map (fun l -> [ l ]) q) in
               match S.solve ~assumptions:q s with
               | S.Sat ->
                 brute
                 && List.for_all (List.exists (S.lit_value s)) cls
                 && List.for_all (S.lit_value s) q
               | S.Unsat -> not brute
               | S.Unknown -> false)
             qs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"sound under aggressive reduce_db"
         arb_cnf (fun (nv, cls) ->
           let s = mk nv cls in
           S.set_learnt_limit s 1;
           match S.solve s with
           | S.Sat ->
             List.for_all
               (fun c -> List.exists (fun l -> S.lit_value s l) c)
               cls
           | S.Unsat -> not (brute_force nv cls)
           | S.Unknown -> false));
  ]

let suite =
  ( "sat",
    [
      Alcotest.test_case "trivial" `Quick test_trivial;
      Alcotest.test_case "implication chain" `Quick test_chain_implications;
      Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
      Alcotest.test_case "conflict budget" `Quick test_budget;
      Alcotest.test_case "assumptions" `Quick test_assumptions;
      Alcotest.test_case "reduce_db shrinks learnt DB" `Quick test_reduce_db_shrinks;
      Alcotest.test_case "model guard" `Quick test_model_guard;
      Alcotest.test_case "clause longer than a chunk" `Quick test_long_clause;
    ]
    @ qcheck_tests )

let _ = lit
