(* Parallel execution inside one synthesis: property sharding on the toy
   DUV finds the same µPATH set as the single-checker run, and checker
   stats merge without aliasing.  The engine's domain fan-out is pinned in
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
    ] )
