(* Parallel-execution determinism: the engine's domain fan-out must be
   invisible in the output.  [Engine.run ~jobs:4] on the Ibex design has to
   produce the same signatures and the same report (µPATH sets, decisions,
   property outcome counts) as the sequential run — the per-task seed
   derivation exists precisely for this — tracing must not change the
   report digest, and a warm rerun from the verdict store the sequential
   run filled must replay its report.  Every one of those runs calls its
   design thunk once.  Also: property sharding on the toy DUV finds the
   same µPATH set as the single-checker run. *)

module Engine = Synthlc.Engine

let light_config =
  {
    Mc.Checker.default_config with
    Mc.Checker.bmc_depth = 8;
    bmc_conflicts = 30_000;
    induction_max_k = 2;
    sim_episodes = 8;
    sim_cycles = 36;
  }

let run_ibex_engine ?cache jobs =
  let calls = ref 0 in
  let design () =
    incr calls;
    Designs.Ibex.build ()
  in
  let stimulus ~pins ~rotate meta = Designs.Stimulus.ibex ~pins ~rotate meta in
  (* Only the -j 1 arm names the synthesis config; the -j 4 arm leaves it
     to its default, [config], so the equal-report check below pins that
     default too. *)
  let synth_config = if jobs = 1 then Some light_config else None in
  let r =
    Engine.run ?cache ~config:light_config ?synth_config ~stimulus ~design ~jobs
      ~instructions:
        [ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD; Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV ]
      ~transmitters:[ Isa.DIV; Isa.ADD ]
      ~kinds:[ Synthlc.Types.Intrinsic ]
      ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
  in
  Alcotest.(check int) (Printf.sprintf "-j %d calls the design thunk once" jobs) 1
    !calls;
  r

(* The -j 1 arm also runs traced and fills a fresh verdict store, so the
   one pair of runs checks the digest-exclusion rule and the cache too: the
   traced, cold-cached sequential run and the untraced, uncached parallel
   run (the path users run) agree on every semantic fact, and only the
   traced one carries observability output.  A warm -j 1 rerun from that
   store then replays the cold report. *)
let test_engine_jobs_deterministic () =
  Test_sweep.with_tmpdir @@ fun dir ->
  let cold_store = Vcache.create ~dir () in
  let seq =
    Test_obs.with_obs (fun () ->
        let r = run_ibex_engine ~cache:cold_store 1 in
        Alcotest.(check bool) "spans recorded" true (Obs.events () <> []);
        r)
  in
  Alcotest.(check (triple int int int)) "cold hits / misses / stores"
    (0, 52, 52) (Vcache.counters cold_store);
  let warm_store = Vcache.create ~dir () in
  let warm = run_ibex_engine ~cache:warm_store 1 in
  Alcotest.(check bool) "warm report equal to cold" true
    (Engine.equal_report seq warm);
  Alcotest.(check string) "warm digest equal to cold"
    (Engine.report_digest seq) (Engine.report_digest warm);
  Alcotest.(check (triple int int int)) "warm hits / misses / stores"
    (52, 0, 0) (Vcache.counters warm_store);
  Alcotest.(check (float 0.)) "warm synthesis-stage hit rate" 1.
    (Mc.Checker.Stats.hit_rate warm.Engine.checker_totals);
  let par = run_ibex_engine 4 in
  Alcotest.(check (list (pair string (float 0.))))
    "untraced report carries no metrics" [] par.Engine.metrics;
  Alcotest.(check int) "jobs recorded" 4 par.Engine.jobs;
  Alcotest.(check bool) "report equal to sequential" true
    (Engine.equal_report seq par);
  Alcotest.(check string) "digests bit-identical" (Engine.report_digest seq)
    (Engine.report_digest par);
  Alcotest.(check bool) "traced report carries engine.elapsed_s" true
    (List.mem_assoc "engine.elapsed_s" seq.Engine.metrics);
  let sig_names r =
    List.map Synthlc.Types.signature_name (Engine.all_signatures r)
  in
  Alcotest.(check (list string)) "same signatures" (sig_names seq) (sig_names par);
  List.iter2
    (fun (a : Engine.transponder_report) (b : Engine.transponder_report) ->
      Alcotest.(check int) "same uPATH count"
        (List.length a.Engine.synth.Mupath.Synth.paths)
        (List.length b.Engine.synth.Mupath.Synth.paths))
    seq.Engine.transponders par.Engine.transponders

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
      Alcotest.test_case "engine -j 4 deterministic (ibex)" `Slow
        test_engine_jobs_deterministic;
    ] )
