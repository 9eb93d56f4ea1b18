(* Absolute pins on the workloads no other test runs whole.

   The quick SynthLC engine workload: ADD, DIV, LW and BEQ on ibex_lite,
   transmitters DIV and ADD, at [light_config] (perfbench's
   [synthlc_config] at seed 1).  It runs four times: cold and traced into
   an empty verdict store, warm from that store, warm again with every
   static pre-pass audited, and untraced and uncached on four domains,
   which must reproduce the -j 1 report (the per-task seed derivation
   exists for this).  The DIV cover batch runs µPATH synthesis at depth 20
   with both simulations off, so the SAT path decides every cover.  A
   change that moves a verdict, a witness, a prune count, a cache counter
   or the span count fails here and names the value it moved.

   µPATH synthesis with no presim episodes, where the checker's depth
   suffices, reproduces the report presim gives: witnesses and episodes
   are read by one observer, so the decisions (§IV-B) do not depend on
   which of the two saw an execution. *)

module Engine = Synthlc.Engine
module Synth = Mupath.Synth

let light_config =
  {
    Mc.Checker.default_config with
    Mc.Checker.bmc_depth = 8;
    bmc_conflicts = 30_000;
    induction_max_k = 2;
    sim_episodes = 8;
    sim_cycles = 36;
  }

let run_engine ?cache ?(jobs = 1) ~prune () =
  let calls = ref 0 in
  let design () =
    incr calls;
    Designs.Ibex.build ()
  in
  let r =
    Engine.run ?cache ~config:light_config ~prune
      ~stimulus:(fun ~pins ~rotate meta ->
        Designs.Stimulus.ibex ~pins ~rotate meta)
      ~design ~jobs ~exclude_sources:[ "IF"; "scbCmt" ]
      ~instructions:
        [
          Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD;
          Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV;
          Isa.make ~rd:3 ~rs1:2 Isa.LW;
          Isa.make ~rs1:1 ~rs2:2 ~imm:8 Isa.BEQ;
        ]
      ~transmitters:[ Isa.DIV; Isa.ADD ]
      ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
      ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Ibex.iuv_pc ()
  in
  Alcotest.(check int) (Printf.sprintf "-j %d calls the design thunk once" jobs) 1
    !calls;
  r

(* [f] of each transponder's duv_pl stage. *)
let duv_pl_each f (r : Engine.report) =
  List.map
    (fun (t : Engine.transponder_report) ->
      f (List.assoc "duv_pl" t.Engine.synth.Synth.stage_stats))
    r.Engine.transponders

(* [f] summed over every transponder's duv_pl stage. *)
let duv_pl f r = List.fold_left ( + ) 0 (duv_pl_each f r)

(* [f] summed over every Synth stage of every transponder. *)
let all_stages f (r : Engine.report) =
  List.fold_left
    (fun acc (t : Engine.transponder_report) ->
      List.fold_left (fun acc (_, s) -> acc + f s) acc t.Engine.synth.Synth.stage_stats)
    0 r.Engine.transponders

let counters = Alcotest.(triple int int int)

let test_engine_workload () =
  Test_sweep.with_tmpdir @@ fun dir ->
  let digest = "bf3012036c4b2c653249bbfc80d8f397" in
  let d = Engine.report_digest in
  Obs.enable ();
  Obs.reset ();
  let cold_store = Vcache.create ~dir () in
  let cold =
    Fun.protect ~finally:Obs.disable (fun () ->
        run_engine ~cache:cold_store ~prune:`On ())
  in
  let events = List.length (Obs.events ()) in
  Obs.reset ();
  Alcotest.(check string) "cold report digest" digest (d cold);
  Alcotest.check counters "cold hits/misses/stores" (0, 101, 101)
    (Vcache.counters cold_store);
  Alcotest.(check int) "trace events" 267 events;
  Alcotest.(check bool) "traced report carries engine.elapsed_s" true
    (List.mem_assoc "engine.elapsed_s" cold.Engine.metrics);
  Alcotest.(check int) "duv_pl covers pruned statically" 12
    (duv_pl (fun s -> s.Synth.pruned_static) cold);
  (* ibex_lite has no register-level known bits: the refinement discharges
     nothing, in any stage or in the flow. *)
  Alcotest.(check int) "covers pruned by known bits, every stage" 0
    (all_stages (fun s -> s.Synth.pruned_absint) cold);
  Alcotest.(check int) "flow props pruned by known bits" 0
    cold.Engine.total_flow_pruned_absint;
  Alcotest.(check int) "duv_pl props dispatched" 0
    (duv_pl (fun s -> s.Synth.props) cold);
  Alcotest.(check int) "flow props" 20 cold.Engine.total_flow_props;
  Alcotest.(check int) "flow props pruned statically" 10
    cold.Engine.total_flow_pruned_static;
  let warm_store = Vcache.create ~dir () in
  let warm = run_engine ~cache:warm_store ~prune:`On () in
  Alcotest.check counters "warm hits/misses/stores" (101, 0, 0)
    (Vcache.counters warm_store);
  Alcotest.(check bool) "warm report equals cold" true
    (Engine.equal_report cold warm);
  Alcotest.(check string) "warm report digest" digest (d warm);
  Alcotest.(check (float 0.)) "warm synthesis-stage hit rate" 1.
    (Mc.Checker.Stats.hit_rate warm.Engine.checker_totals);
  (* The audit re-checks the 22 pruned covers after the main stream; the
     101 others replay from the store. *)
  let audit_store = Vcache.create ~dir () in
  let audit = run_engine ~cache:audit_store ~prune:`Audit () in
  Alcotest.(check string) "audited report digest" digest (d audit);
  Alcotest.check counters "audited hits/misses/stores" (101, 22, 22)
    (Vcache.counters audit_store);
  Alcotest.(check int) "audited duv_pl props" 12
    (duv_pl (fun s -> s.Synth.props) audit);
  (* Every cover a pre-pass discharged cold is a property under audit,
     transponder by transponder. *)
  Alcotest.(check (list int)) "audited duv_pl props = cold props + prunes"
    (duv_pl_each
       (fun s -> s.Synth.props + s.Synth.pruned_static + s.Synth.pruned_absint)
       cold)
    (duv_pl_each (fun s -> s.Synth.props) audit);
  Alcotest.(check (pair int int)) "audit prunes no cover, every stage" (0, 0)
    ( all_stages (fun s -> s.Synth.pruned_static) audit,
      all_stages (fun s -> s.Synth.pruned_absint) audit );
  Alcotest.(check int) "audited flow props" 20 audit.Engine.total_flow_props;
  Alcotest.(check (pair int int)) "audit prunes no flow cover" (0, 0)
    (audit.Engine.total_flow_pruned_static, audit.Engine.total_flow_pruned_absint);
  let par = run_engine ~jobs:4 ~prune:`On () in
  Alcotest.(check string) "-j 4 report digest" digest (d par);
  Alcotest.(check bool) "-j 4 report equals cold" true (Engine.equal_report cold par);
  Alcotest.(check int) "jobs recorded" 4 par.Engine.jobs;
  Alcotest.(check (list (pair string (float 0.))))
    "untraced report carries no metrics" [] par.Engine.metrics

let test_div_batch () =
  let config =
    {
      light_config with
      Mc.Checker.sim_episodes = 0;
      bmc_depth = 20;
    }
  in
  let r =
    Synth.run ~config ~presim_episodes:0 ~meta:(Designs.Ibex.build ())
      ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV)
      ~iuv_pc:Designs.Ibex.iuv_pc ()
  in
  Alcotest.(check string) "result digest" "840fe9a5bbec98e586b4ae8ffdda7728"
    (Synth.result_digest r)

let synth_ibex ~presim_episodes instr =
  let meta = Designs.Ibex.build () in
  Synth.run ~config:light_config ~presim_episodes
    ~stimulus:(Designs.Stimulus.ibex ~pins:[ (Designs.Ibex.iuv_pc, instr) ] meta)
    ~revisit_count_labels:[ "divU" ] ~meta ~iuv:instr ~iuv_pc:Designs.Ibex.iuv_pc
    ()

let test_presim_independent () =
  List.iter
    (fun (instr, digest) ->
      List.iter
        (fun presim_episodes ->
          Alcotest.(check string)
            (Printf.sprintf "%s, %d presim episodes" (Isa.to_string instr)
               presim_episodes)
            digest
            (Synth.result_digest (synth_ibex ~presim_episodes instr)))
        [ 0; 64 ])
    [
      (Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD, "b18770db617414a9796f40ffb9bb4086");
      (Isa.make ~rd:3 ~rs1:2 Isa.LW, "6d5837b7a7f2b60e172987ff06bd0698");
      (Isa.make ~rs1:1 ~rs2:2 ~imm:8 Isa.BEQ, "cb596f2d9e4f33e3c02841193d086862");
    ];
  (* DIV's divU run counts still depend on presim, whose traces reach runs
     the checker's depth of 8 cannot, but its witnesses alone show divU's
     finish-or-stay decision, the exit included. *)
  let div = synth_ibex ~presim_episodes:0 (Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV) in
  Alcotest.(check bool) "DIV, 0 presim episodes: divU -> {}" true
    (List.mem [] (List.assoc "divU" div.Synth.decisions));
  (* The gate-level example at perfbench's [mupath_config] (seed 1, sweep
     on). *)
  let d =
    Test_sweep.load_or_fail ~lint:false ~json_path:Test_sweep.gl_json
      ~meta_path:Test_sweep.gl_meta ()
  in
  let meta = d.Frontend.Admission.meta and iuv_pc = d.Frontend.Admission.iuv_pc in
  let iuv = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD in
  let config =
    {
      Mc.Checker.default_config with
      Mc.Checker.bmc_depth = 12;
      bmc_conflicts = 60_000;
      induction_max_k = 2;
      sim_episodes = 12;
      sim_cycles = 44;
      sweep = Mc.Checker.Sweep_on;
    }
  in
  Alcotest.(check string) "gate-level ADD, 0 presim episodes"
    "16387a7c6c6c0e8ec71e318557630819"
    (Synth.result_digest
       (Synth.run ~config ~presim_episodes:0
          ~stimulus:(Designs.Stimulus.ibex ~pins:[ (iuv_pc, iuv) ] meta)
          ~meta ~iuv ~iuv_pc ()))

let suite =
  ( "pins",
    [
      Alcotest.test_case "engine workload cold, warm and audited" `Slow
        test_engine_workload;
      Alcotest.test_case "depth-20 DIV batch, simulations off" `Slow
        test_div_batch;
      Alcotest.test_case "reports independent of presim" `Slow
        test_presim_independent;
    ] )
