(* Experiments E6/E8/E9/E13 (shared SynthLC engine run over the artifact's
   restricted 5-instruction ISA), E11 (property statistics), the
   remaining ablations, and P1 (the domain pool's speedup). *)

module Meta = Designs.Meta
module Checker = Mc.Checker

let section = Experiments.section
let check = Experiments.check
let config = Experiments.config

(* The artifact appendix's restricted ISA: ADD, DIV, LW, SW, BEQ. *)
let artifact_isa =
  [
    Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD;
    Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV;
    Isa.make ~rd:3 ~rs1:2 Isa.LW;
    Isa.make ~rs1:1 ~rs2:3 Isa.SW;
    Isa.make ~rs1:1 ~rs2:2 ~imm:8 Isa.BEQ;
  ]

let transmitter_opcodes = [ Isa.DIV; Isa.LW; Isa.SW; Isa.BEQ; Isa.ADD ]

let engine_report = ref None

(* The experiments that read E13's report; [bench/main.ml] runs E13 before
   any of them. *)
let reads_e13 = [ "E8"; "E9"; "A1" ]

let e13_report () =
  match !engine_report with
  | Some r -> r
  | None -> failwith "E13 produced no engine report"

(* E13 — the artifact's first experiment: end-to-end RTL2MuPATH + SynthLC
   on DIV, with the 5-instruction transmitter set. *)
let e13 () =
  section "E13" "Artifact experiment - end-to-end SynthLC over the restricted ISA";
  let transponders =
    match Experiments.profile with
    | `Quick -> [ List.nth artifact_isa 1 ] (* DIV *)
    | `Full -> artifact_isa
  in
  let kinds =
    match Experiments.profile with
    | `Quick -> [ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
    | `Full ->
      [
        Synthlc.Types.Intrinsic;
        Synthlc.Types.Dynamic_older;
        Synthlc.Types.Dynamic_younger;
      ]
  in
  let design () = Designs.Core.build Designs.Core.baseline in
  let stimulus ~pins ~rotate meta = Designs.Stimulus.core ~pins ~rotate meta in
  let transmitters =
    match Experiments.profile with
    | `Quick -> [ Isa.DIV; Isa.LW; Isa.SW; Isa.BEQ ]
    | `Full -> transmitter_opcodes
  in
  let exclude_sources =
    (* Quick profile skips the squash-refetch (IF) and retirement (scbCmt)
       decision sources during the IFT stage — cost control, not semantics;
       full profile queries everything. *)
    match Experiments.profile with `Quick -> [ "IF"; "scbCmt" ] | `Full -> []
  in
  let report =
    Synthlc.Engine.run ~config ~stimulus ~design
      ~exclude_sources ~instructions:transponders ~transmitters ~kinds
      ~revisit_count_labels:[ "divU"; "ID"; "scbFin" ]
      ~iuv_pc:Designs.Core.iuv_pc ()
  in
  engine_report := Some report;
  Experiments.record Experiments.core_stats report.Synthlc.Engine.checker_totals;
  Format.printf "%a@." Synthlc.Engine.pp_report report;
  (* Key artifact results (SS I-G of the appendix): *)
  let div_report =
    List.find
      (fun (t : Synthlc.Engine.transponder_report) -> t.Synthlc.Engine.instr.Isa.op = Isa.DIV)
      report.Synthlc.Engine.transponders
  in
  let div_counts =
    List.assoc "divU" div_report.Synthlc.Engine.synth.Mupath.Synth.revisit_counts
  in
  Printf.printf "DIV divU occupancy classes: {%s} (paper: 1..66; ours: 1..8)\n"
    (String.concat "," (List.map string_of_int div_counts));
  check "DIV has wide operand-dependent occupancy range" (List.length div_counts >= 5);
  let div_inputs =
    List.concat_map
      (fun (s : Synthlc.Types.signature) -> s.Synthlc.Types.inputs)
      div_report.Synthlc.Engine.signatures
  in
  check "DIV labelled an intrinsic transmitter"
    (List.exists
       (fun (i : Synthlc.Types.explicit_input) ->
         i.Synthlc.Types.kind = Synthlc.Types.Intrinsic
         && i.Synthlc.Types.transmitter = Isa.DIV)
       div_inputs);
  check "DIV is a transponder for dynamic transmitters"
    (List.exists
       (fun (i : Synthlc.Types.explicit_input) ->
         i.Synthlc.Types.kind <> Synthlc.Types.Intrinsic)
       div_inputs);
  match
    List.find_opt
      (fun (t : Synthlc.Engine.transponder_report) -> t.Synthlc.Engine.instr.Isa.op = Isa.LW)
      report.Synthlc.Engine.transponders
  with
  | None -> () (* LW analyzed in the full profile only; E5 covers LD_issue *)
  | Some lw_report ->
    check "LW signatures include a dynamic SW transmitter (store-to-load)"
      (List.exists
         (fun (s : Synthlc.Types.signature) ->
           List.exists
             (fun (i : Synthlc.Types.explicit_input) ->
               i.Synthlc.Types.transmitter = Isa.SW
               && i.Synthlc.Types.kind <> Synthlc.Types.Intrinsic)
             s.Synthlc.Types.inputs)
         lw_report.Synthlc.Engine.signatures)

(* E8 — Fig. 8: the leakage-signature grid. *)
let e8 () =
  section "E8" "Fig. 8 - leakage-signature grid (transponders x typed transmitters)";
  let report = e13_report () in
  let grid = Synthlc.Grid.build report.Synthlc.Engine.transponders in
  Format.printf "%a@." Synthlc.Grid.pp grid;
  Printf.printf "columns (leakage signatures): %d\n" (Synthlc.Grid.count_signatures grid);
  Printf.printf "distinct transmitters: %d\n" (Synthlc.Grid.count_transmitters grid);
  Printf.printf "transponders with variability: %d / %d analyzed\n"
    (Synthlc.Grid.count_transponders report.Synthlc.Engine.transponders)
    (List.length report.Synthlc.Engine.transponders);
  check "grid is non-trivial" (Synthlc.Grid.count_signatures grid >= 2);
  check "intrinsic and dynamic rows both present"
    (List.exists (fun r -> r.Synthlc.Grid.row_kind = Synthlc.Types.Intrinsic) grid.Synthlc.Grid.rows
    && List.exists
         (fun r -> r.Synthlc.Grid.row_kind <> Synthlc.Types.Intrinsic)
         grid.Synthlc.Grid.rows);
  check "some secondary (stall-in-place) leakage cells"
    (List.exists (fun (_, _, c) -> c = Synthlc.Grid.Secondary) grid.Synthlc.Grid.cells)

(* E9 — §VII-A1 findings + E6 — Table I contracts. *)
let e9_e6 () =
  section "E9" "SS VII-A1 findings - transponders/transmitters census";
  (let report = e13_report () in
    let all_variable =
      List.for_all
        (fun (t : Synthlc.Engine.transponder_report) ->
          List.length t.Synthlc.Engine.synth.Mupath.Synth.paths > 1
          || List.exists
               (fun (_, ds) -> List.length ds > 1)
               t.Synthlc.Engine.synth.Mupath.Synth.decisions)
        report.Synthlc.Engine.transponders
    in
    check "every analyzed instruction is a transponder (paper: all 72)" all_variable;
    let txs = Synthlc.Engine.all_transmitter_opcodes report in
    Printf.printf "transmitters found: %s\n"
      (String.concat ", " (List.map Isa.mnemonic txs));
    check "DIV among transmitters" (List.mem Isa.DIV txs);
    check "no static transmitters on the core (frontend black-boxed)"
      (List.for_all
         (fun (s : Synthlc.Types.signature) ->
           List.for_all
             (fun (i : Synthlc.Types.explicit_input) ->
               i.Synthlc.Types.kind <> Synthlc.Types.Static)
             s.Synthlc.Types.inputs)
         (Synthlc.Engine.all_signatures report)));
  section "E6" "Table I - six leakage contracts derived from signatures";
  let report = e13_report () in
    let signatures = Synthlc.Engine.all_signatures report in
    let revisit_counts =
      List.map
        (fun (t : Synthlc.Engine.transponder_report) ->
          (t.Synthlc.Engine.instr.Isa.op, t.Synthlc.Engine.synth.Mupath.Synth.revisit_counts))
        report.Synthlc.Engine.transponders
    in
    let bundle =
      Synthlc.Contracts.derive ~signatures ~revisit_counts
        ~store_opcodes:[ Isa.SW; Isa.SB ]
    in
    Format.printf "%a@." Synthlc.Contracts.pp_bundle bundle;
    check "CT contract non-empty"
      (bundle.Synthlc.Contracts.ct.Synthlc.Contracts.unsafe <> []);
    check "OISA flags the serial divider"
      (List.exists
         (fun (op, pl, _) -> op = Isa.DIV && pl = "divU")
         bundle.Synthlc.Contracts.oisa.Synthlc.Contracts.oisa_input_dependent_units);
    check "STT has explicit channels"
      (bundle.Synthlc.Contracts.stt.Synthlc.Contracts.stt_explicit_channels <> []);
    check "STT has implicit branches"
      (bundle.Synthlc.Contracts.stt.Synthlc.Contracts.stt_implicit_branches <> []);
    check "Dolma variable-time ops include DIV"
      (List.mem Isa.DIV
         bundle.Synthlc.Contracts.dolma.Synthlc.Contracts.dolma_variable_time)

(* E11 — §VII-B3 property-evaluation statistics. *)
let e11 () =
  section "E11" "SS VII-B3 - property-evaluation statistics (core vs cache)";
  let p (name : string) (b : Experiments.stat_bucket) =
    Printf.printf
      "%-6s: %6d properties, mean %6.3fs/property, %5.1f%% undetermined, %d sim-discharged, %d inductive\n"
      name b.Experiments.props
      (if b.Experiments.props = 0 then 0.
       else b.Experiments.time /. float_of_int b.Experiments.props)
      (if b.Experiments.props = 0 then 0.
       else 100. *. float_of_int b.Experiments.undetermined /. float_of_int b.Experiments.props)
      b.Experiments.sim_discharged b.Experiments.inductive
  in
  p "core" Experiments.core_stats;
  p "cache" Experiments.cache_stats;
  let core = Experiments.core_stats and cache = Experiments.cache_stats in
  let mean b =
    if b.Experiments.props = 0 then 0.
    else b.Experiments.time /. float_of_int b.Experiments.props
  in
  check "modular cache properties are cheaper than core properties (paper: 3s vs minutes)"
    (cache.Experiments.props > 0 && mean cache < mean core);
  check "undetermined fraction bounded (paper: up to ~16%)"
    (core.Experiments.props = 0
    || float_of_int core.Experiments.undetermined
       /. float_of_int core.Experiments.props
       < 0.25)

(* Ablation A1: dominates/exclusive pruning (§V-B3). *)
let ablation_pruning () =
  section "A1" "Ablation - dominates/exclusive pruning of the PL power set";
  let report = e13_report () in
  Printf.printf "%-22s %10s %10s %8s\n" "IUV" "power set" "candidates" "uPATHs";
  List.iter
    (fun (t : Synthlc.Engine.transponder_report) ->
      let s = t.Synthlc.Engine.synth in
      Printf.printf "%-22s %10d %10d %8d\n"
        (Isa.to_string t.Synthlc.Engine.instr)
        s.Mupath.Synth.naive_sets s.Mupath.Synth.candidate_sets
        (List.length s.Mupath.Synth.paths))
    report.Synthlc.Engine.transponders;
  check "pruning shrinks the power set by >10x on every IUV"
    (List.for_all
       (fun (t : Synthlc.Engine.transponder_report) ->
         let s = t.Synthlc.Engine.synth in
         s.Mupath.Synth.candidate_sets * 10 <= s.Mupath.Synth.naive_sets)
       report.Synthlc.Engine.transponders)

(* P1 — domain-parallel SynthLC: the paper parallelizes per-instruction
   model checking across JasperGold jobs (§VII-B3); we fan the engine out
   across OCaml domains and measure sequential vs parallel wall-clock on
   the same multi-instruction experiment.  The parallel report must be
   bit-identical to the sequential one (per-task seed derivation).  This
   is the repository's only measurement of the domain pool's speedup. *)

let requested_jobs = ref 0 (* 0 = auto; set by bench -j *)

(* One timed run of P1's workload: wall-clock seconds and the report.
   Quick profile: the smaller Ibex core at reduced budgets, the workload
   test/test_pins.ml pins; full profile: the CVA6-lite baseline over the
   artifact ISA (2x the E13 workload). *)
let run_engine_workload ~jobs =
  let design, stimulus, instructions, transmitters, light_config =
    match Experiments.profile with
    | `Quick ->
      ( (fun () -> Designs.Ibex.build ()),
        (fun ~pins ~rotate meta -> Designs.Stimulus.ibex ~pins ~rotate meta),
        [
          Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD;
          Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV;
          Isa.make ~rd:3 ~rs1:2 Isa.LW;
          Isa.make ~rs1:1 ~rs2:2 ~imm:8 Isa.BEQ;
        ],
        [ Isa.DIV; Isa.ADD ],
        {
          config with
          Checker.bmc_depth = 8;
          bmc_conflicts = 30_000;
          sim_episodes = 8;
          sim_cycles = 36;
        } )
    | `Full ->
      ( (fun () -> Designs.Core.build Designs.Core.baseline),
        (fun ~pins ~rotate meta -> Designs.Stimulus.core ~pins ~rotate meta),
        artifact_isa,
        [ Isa.DIV; Isa.LW; Isa.SW; Isa.BEQ ],
        config )
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Synthlc.Engine.run ~config:light_config ~stimulus ~design ~jobs
      ~exclude_sources:[ "IF"; "scbCmt" ] ~instructions ~transmitters
      ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
      ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
  in
  (Unix.gettimeofday () -. t0, r)

let parallel_speedup () =
  let jobs =
    max 2 (if !requested_jobs >= 1 then !requested_jobs else Pool.default_jobs ())
  in
  section "P1"
    (Printf.sprintf
       "Domain-parallel SynthLC - sequential vs -j %d fan-out (SS VII-B3)" jobs);
  let t_seq, r_seq = run_engine_workload ~jobs:1 in
  let t_par, r_par = run_engine_workload ~jobs in
  let equal = Synthlc.Engine.equal_report r_seq r_par in
  let sp = if t_par > 0. then t_seq /. t_par else 1. in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  sequential (-j 1): %6.1fs  (%d uPATH + %d IFT properties)\n"
    t_seq r_seq.Synthlc.Engine.total_mupath_props
    r_seq.Synthlc.Engine.total_flow_props;
  Printf.printf "  parallel   (-j %d): %6.1fs\n" jobs t_par;
  Printf.printf "  speedup: %.2fx (%d core%s available to this process)\n" sp
    cores (if cores = 1 then "" else "s");
  check "parallel report bit-identical to sequential" equal;
  if cores >= 2 then check "parallel fan-out is faster" (sp > 1.2)
  else
    Printf.printf
      "  [note] single-core host: domains interleave, no wall-clock win \
       expected\n"

(* Ablation A2: simulation-assisted cover discharge. *)
let ablation_sim_assist () =
  section "A2" "Ablation - simulation pre-pass on vs off (one ADD synthesis)";
  let iuv = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD in
  let run sim_episodes presim =
    let meta = Designs.Core.build Designs.Core.baseline in
    let stim = Designs.Stimulus.core ~pins:[ (Designs.Core.iuv_pc, iuv) ] meta in
    let t0 = Unix.gettimeofday () in
    let r =
      Mupath.Synth.run
        ~config:{ config with Checker.sim_episodes }
        ~presim_episodes:presim ~stimulus:stim ~meta ~iuv
        ~iuv_pc:Designs.Core.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_on, r_on = run config.Checker.sim_episodes 64 in
  let t_off, r_off = run 0 0 in
  Printf.printf "with simulation assist   : %5.1fs, %d solver properties\n" t_on
    r_on.Mupath.Synth.checker_stats.Checker.Stats.n_props;
  Printf.printf "without simulation assist: %5.1fs, %d solver properties\n" t_off
    r_off.Mupath.Synth.checker_stats.Checker.Stats.n_props;
  check "same uPATH count either way"
    (List.length r_on.Mupath.Synth.paths = List.length r_off.Mupath.Synth.paths);
  check "assist reduces wall-clock or solver load"
    (t_on < t_off
    || r_on.Mupath.Synth.checker_stats.Checker.Stats.n_props
       < r_off.Mupath.Synth.checker_stats.Checker.Stats.n_props)
