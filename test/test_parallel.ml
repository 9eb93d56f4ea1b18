(* Parallel execution inside one synthesis: property sharding on the toy
   DUV finds the same µPATH set as the single-checker run, sharding ibex
   with both simulations off reads the same witnesses, and checker stats
   merge without aliasing.  The engine's domain fan-out is pinned in
   the [pins] suite, whose -j 4 run must reproduce the -j 1 report. *)

let paths_of (r : Mupath.Synth.result) =
  List.map
    (fun (p : Mupath.Synth.path) -> (p.Mupath.Synth.pl_set, p.Mupath.Synth.hb_edges))
    r.Mupath.Synth.paths

let test_synth_shards_on_toy () =
  let run shards =
    Mupath.Synth.run ~config:Test_mupath.toy_config ~shards
      ~meta:(Test_mupath.toy_design ()) ~iuv:(Isa.make Isa.ADD) ~iuv_pc:2 ()
  in
  let plain = run 1 in
  let sharded = run 2 in
  Alcotest.(check int) "same uPATH count"
    (List.length plain.Mupath.Synth.paths)
    (List.length sharded.Mupath.Synth.paths);
  Alcotest.(check bool) "same uPATH sets" true
    (paths_of plain = paths_of sharded);
  Alcotest.(check (list string)) "same IUV PLs" plain.Mupath.Synth.iuv_pls
    sharded.Mupath.Synth.iuv_pls;
  (* Shard checkers merge into one stats record covering every property. *)
  Alcotest.(check bool) "merged stats cover all properties" true
    (sharded.Mupath.Synth.checker_stats.Mc.Checker.Stats.n_props
    >= plain.Mupath.Synth.checker_stats.Mc.Checker.Stats.n_props)

(* With presim and the checker's pre-pass both off, every PL set [pl_set]
   finds reachable comes with a checker witness, which its shard returns
   and the join replays: the partition must not change what synthesis
   reads. *)
let test_synth_shards_read_witnesses () =
  let config = { Test_pins.light_config with Mc.Checker.sim_episodes = 0 } in
  let run shards =
    Mupath.Synth.run ~config ~presim_episodes:0 ~shards ~meta:(Designs.Ibex.build ())
      ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
      ~iuv_pc:Designs.Ibex.iuv_pc ()
  in
  let one = run 1 in
  let pl_set = List.assoc "pl_set" one.Mupath.Synth.stage_stats in
  Alcotest.(check bool) "pl_set reads checker witnesses only" true
    (one.Mupath.Synth.paths <> [] && pl_set.Mupath.Synth.presim_hits = 0);
  List.iter
    (fun shards ->
      Alcotest.(check string)
        (Printf.sprintf "%d shards" shards)
        (Mupath.Synth.result_digest one)
        (Mupath.Synth.result_digest (run shards)))
    [ 3; 4 ]

let test_stats_merge () =
  let a = Mc.Checker.Stats.create () and b = Mc.Checker.Stats.create () in
  a.Mc.Checker.Stats.n_props <- 3;
  a.Mc.Checker.Stats.n_reachable <- 2;
  a.Mc.Checker.Stats.total_time <- 1.5;
  b.Mc.Checker.Stats.n_props <- 4;
  b.Mc.Checker.Stats.n_undetermined <- 1;
  b.Mc.Checker.Stats.total_time <- 0.5;
  let m = Mc.Checker.Stats.merge a b in
  Alcotest.(check int) "props" 7 m.Mc.Checker.Stats.n_props;
  Alcotest.(check int) "reachable" 2 m.Mc.Checker.Stats.n_reachable;
  Alcotest.(check int) "undetermined" 1 m.Mc.Checker.Stats.n_undetermined;
  Alcotest.(check (float 1e-9)) "time" 2.0 m.Mc.Checker.Stats.total_time;
  (* merge must not alias its inputs *)
  m.Mc.Checker.Stats.n_props <- 99;
  Alcotest.(check int) "input a untouched" 3 a.Mc.Checker.Stats.n_props

let suite =
  ( "parallel",
    [
      Alcotest.test_case "stats merge" `Quick test_stats_merge;
      Alcotest.test_case "shards on toy DUV" `Quick test_synth_shards_on_toy;
      Alcotest.test_case "shards read ibex witnesses" `Slow
        test_synth_shards_read_witnesses;
    ] )
