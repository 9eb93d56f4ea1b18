(* Experiments E6/E8/E9/E13 (shared SynthLC engine run over the artifact's
   restricted 5-instruction ISA), E11 (property statistics), and the
   remaining ablations. *)

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
    Synthlc.Engine.run ~config ~synth_config:config ~stimulus ~design
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
  match !engine_report with
  | None -> Printf.printf "  (requires E13 to run first)\n"
  | Some report ->
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
  (match !engine_report with
  | None -> Printf.printf "  (requires E13 to run first)\n"
  | Some report ->
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
  match !engine_report with
  | None -> ()
  | Some report ->
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
  match !engine_report with
  | None -> Printf.printf "  (requires E13 to run first)\n"
  | Some report ->
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
   bit-identical to the sequential one (per-task seed derivation). *)

let requested_jobs = ref 0 (* 0 = auto; set by bench -j *)

type speedup_record = {
  sp_jobs : int;
  sp_cores : int;
  sp_t_seq : float;
  sp_t_par : float;
  sp_speedup : float;
  sp_equal : bool;
  sp_mupath_props : int;
  sp_flow_props : int;
}

let speedup : speedup_record option ref = ref None

(* Shared P1/P2 workload.  Quick profile: the smaller Ibex core at reduced
   budgets; full profile: the CVA6-lite baseline over the artifact ISA (2x
   the E13 workload). *)
let engine_workload () =
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

let parallel_speedup () =
  let jobs =
    max 2 (if !requested_jobs >= 1 then !requested_jobs else Pool.default_jobs ())
  in
  section "P1"
    (Printf.sprintf
       "Domain-parallel SynthLC - sequential vs -j %d fan-out (SS VII-B3)" jobs);
  let design, stimulus, instructions, transmitters, light_config =
    engine_workload ()
  in
  let run_with jobs =
    let t0 = Unix.gettimeofday () in
    let r =
      Synthlc.Engine.run ~config:light_config ~synth_config:light_config
        ~stimulus ~design ~jobs
        ~exclude_sources:[ "IF"; "scbCmt" ]
        ~instructions ~transmitters
        ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
        ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_seq, r_seq = run_with 1 in
  let t_par, r_par = run_with jobs in
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
       expected\n";
  speedup :=
    Some
      {
        sp_jobs = jobs;
        sp_cores = cores;
        sp_t_seq = t_seq;
        sp_t_par = t_par;
        sp_speedup = sp;
        sp_equal = equal;
        sp_mupath_props = r_seq.Synthlc.Engine.total_mupath_props;
        sp_flow_props = r_seq.Synthlc.Engine.total_flow_props;
      }

(* P2 — persistent verdict cache: cold vs warm wall-clock on the same
   engine workload as P1.  The warm run opens a fresh store over the cold
   run's directory (a simulated process restart) and must replay >=90% of
   its checker calls from disk while producing a bit-identical report. *)

type cache_record = {
  vc_t_cold : float;
  vc_t_warm : float;
  vc_speedup : float;
  vc_calls : int;
  vc_hits : int;
  vc_hit_rate : float;
  vc_equal : bool;
  vc_digest : string;
}

let cache_result : cache_record option ref = ref None

let cache_warmup () =
  section "P2" "Persistent verdict cache - cold vs warm SynthLC wall-clock";
  let design, stimulus, instructions, transmitters, light_config =
    engine_workload ()
  in
  let dir = "_vcache_bench" in
  ignore (Vcache.clear_dir ~dir);
  let run_with cache =
    let t0 = Unix.gettimeofday () in
    let r =
      Synthlc.Engine.run ~cache ~config:light_config ~synth_config:light_config
        ~stimulus ~design ~jobs:1
        ~exclude_sources:[ "IF"; "scbCmt" ]
        ~instructions ~transmitters
        ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
        ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_cold, r_cold = run_with (Vcache.create ~dir ()) in
  let warm = Vcache.create ~dir () in
  let t_warm, r_warm = run_with warm in
  let hits, misses, _ = Vcache.counters warm in
  let calls = hits + misses in
  let rate = if calls = 0 then 0. else float_of_int hits /. float_of_int calls in
  let sp = if t_warm > 0. then t_cold /. t_warm else 1. in
  let equal = Synthlc.Engine.equal_report r_cold r_warm in
  let dg_cold = Synthlc.Engine.report_digest r_cold in
  let dg_warm = Synthlc.Engine.report_digest r_warm in
  Printf.printf "  cold: %6.1fs (%d checker calls, %d entries cached)\n" t_cold
    calls (List.length (Vcache.disk_entries ~dir));
  Printf.printf "  warm: %6.1fs (%d hits / %d misses, %.1f%% from cache, %.1fx)\n"
    t_warm hits misses (100. *. rate) sp;
  Printf.printf "  report digests: cold %s, warm %s\n" dg_cold dg_warm;
  check "warm run discharges >= 90% of checker calls from the cache"
    (rate >= 0.9);
  check "warm report bit-identical to cold (equal_report)" equal;
  check "warm report digest equals cold" (dg_cold = dg_warm);
  check "warm run is faster than cold" (t_warm < t_cold);
  cache_result :=
    Some
      {
        vc_t_cold = t_cold;
        vc_t_warm = t_warm;
        vc_speedup = sp;
        vc_calls = calls;
        vc_hits = hits;
        vc_hit_rate = rate;
        vc_equal = equal && dg_cold = dg_warm;
        vc_digest = dg_cold;
      }

(* P3 — static FSM-abstraction reachability pre-pass: covers over
   statically-dead µFSM states are discharged by abstract interpretation
   instead of being dispatched to simulation/BMC.  Both modes must produce
   the same report digest (the audit mode re-checks the pruned covers as a
   trailing batch, tripping a hard failure on any unsound prune). *)

type static_prune_record = {
  st_pruned : int;  (* covers discharged statically (pre-pass on) *)
  st_duv_props_on : int;  (* duv_pl properties dispatched with the pre-pass *)
  st_duv_props_off : int;  (* ... and without (includes the audit batch) *)
  st_t_on : float;
  st_t_off : float;
  st_equal : bool;  (* digests identical across modes *)
  st_digest : string;
}

let static_prune_result : static_prune_record option ref = ref None

let static_prune_bench () =
  section "P3"
    "Static reachability pre-pass - covers pruned vs dispatched, cold wall-clock";
  let design, stimulus, instructions, transmitters, light_config =
    engine_workload ()
  in
  let run_with static_prune =
    let t0 = Unix.gettimeofday () in
    let r =
      Synthlc.Engine.run ~config:light_config ~synth_config:light_config
        ~static_prune ~stimulus ~design ~jobs:1
        ~exclude_sources:[ "IF"; "scbCmt" ]
        ~instructions ~transmitters
        ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
        ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_on, r_on = run_with true in
  let t_off, r_off = run_with false in
  let duv_stage (r : Synthlc.Engine.report) =
    List.map
      (fun (t : Synthlc.Engine.transponder_report) ->
        List.assoc "duv_pl" t.Synthlc.Engine.synth.Mupath.Synth.stage_stats)
      r.Synthlc.Engine.transponders
  in
  let sum f l = List.fold_left (fun a s -> a + f s) 0 l in
  let pruned =
    sum (fun (s : Mupath.Synth.stage_stats) -> s.Mupath.Synth.pruned_static)
      (duv_stage r_on)
  in
  let props_on =
    sum (fun (s : Mupath.Synth.stage_stats) -> s.Mupath.Synth.props)
      (duv_stage r_on)
  in
  let props_off =
    sum (fun (s : Mupath.Synth.stage_stats) -> s.Mupath.Synth.props)
      (duv_stage r_off)
  in
  let dg_on = Synthlc.Engine.report_digest r_on in
  let dg_off = Synthlc.Engine.report_digest r_off in
  Printf.printf "  pre-pass on : %6.1fs (%d duv_pl properties, %d pruned statically)\n"
    t_on props_on pruned;
  Printf.printf "  pre-pass off: %6.1fs (%d duv_pl properties incl. audit batch)\n"
    t_off props_off;
  Printf.printf "  report digests: on %s, off %s\n" dg_on dg_off;
  check "pre-pass prunes at least one cover" (pruned > 0);
  check "every pruned cover reappears as an audit property"
    (props_off = props_on + pruned);
  check "report digest identical across modes" (dg_on = dg_off);
  static_prune_result :=
    Some
      {
        st_pruned = pruned;
        st_duv_props_on = props_on;
        st_duv_props_off = props_off;
        st_t_on = t_on;
        st_t_off = t_off;
        st_equal = dg_on = dg_off;
        st_digest = dg_on;
      }

(* P4 — observability overhead: the obs layer's contract is that
   instrumented hot paths cost nothing measurable while tracing is off
   (one atomic flag read, no allocation).  Measured two ways:

   - micro: a representative work unit timed bare vs. behind a disabled
     [Obs.with_span]; the per-call delta is the disabled-path overhead,
     which must stay under 5%;
   - macro: the P1/P2 engine workload run untraced and traced — the
     traced run must produce a bit-identical report digest (the
     digest-exclusion rule at bench level) while actually capturing
     spans and metrics. *)

type obs_record = {
  ob_ns_plain : float;  (* ns per work unit, bare *)
  ob_ns_disabled : float;  (* ns per work unit behind a disabled span *)
  ob_overhead_pct : float;
  ob_t_off : float;  (* engine workload, tracing off *)
  ob_t_on : float;  (* engine workload, tracing on *)
  ob_events : int;  (* spans captured by the traced run *)
  ob_metrics : (string * float) list;  (* traced run's metric snapshot *)
  ob_equal : bool;  (* digests identical on vs off *)
}

let obs_result : obs_record option ref = ref None

let obs_overhead () =
  section "P4" "Observability overhead - disabled-path cost and traced-run identity";
  Obs.disable ();
  Obs.reset ();
  (* Micro: ~0.3us of real mixing work per unit, so the disabled span's
     atomic read + closure call is amortized the way hot call sites
     amortize it (per-cover, per-task, per-batch — never per-gate). *)
  let work () =
    let acc = ref 0 in
    for i = 0 to 63 do
      acc := !acc lxor Pool.derive_seed ~base:7 ~index:i
    done;
    !acc
  in
  let reps = 200_000 in
  let time_loop f =
    (* Best of 3 trials: the minimum is the least-noise estimate. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let sink = ref 0 in
      for _ = 1 to reps do
        sink := !sink lxor f ()
      done;
      ignore (Sys.opaque_identity !sink);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int reps *. 1e9
  in
  let ns_plain = time_loop work in
  let ns_disabled = time_loop (fun () -> Obs.with_span "p4" work) in
  let overhead_pct =
    if ns_plain > 0. then (ns_disabled -. ns_plain) /. ns_plain *. 100. else 0.
  in
  Printf.printf "  work unit bare         : %8.1f ns\n" ns_plain;
  Printf.printf "  behind a disabled span : %8.1f ns (%+.2f%%)\n" ns_disabled
    overhead_pct;
  check "disabled-path overhead below 5%" (overhead_pct < 5.);
  (* Macro: untraced vs traced engine run. *)
  let design, stimulus, instructions, transmitters, light_config =
    engine_workload ()
  in
  let run_engine () =
    let t0 = Unix.gettimeofday () in
    let r =
      Synthlc.Engine.run ~config:light_config ~synth_config:light_config
        ~stimulus ~design ~jobs:1
        ~exclude_sources:[ "IF"; "scbCmt" ]
        ~instructions ~transmitters
        ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
        ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_off, r_off = run_engine () in
  Obs.enable ();
  let t_on, r_on = run_engine () in
  let events = List.length (Obs.events ()) in
  let metrics = Obs.Metrics.snapshot () in
  Obs.disable ();
  Obs.reset ();
  let dg_off = Synthlc.Engine.report_digest r_off in
  let dg_on = Synthlc.Engine.report_digest r_on in
  let equal = dg_off = dg_on in
  Printf.printf "  engine untraced: %6.1fs\n" t_off;
  Printf.printf "  engine traced  : %6.1fs (%d spans, %d metric series)\n" t_on
    events (List.length metrics);
  Printf.printf "  report digests: untraced %s, traced %s\n" dg_off dg_on;
  check "traced run captured spans" (events > 0);
  check "traced run captured metrics" (metrics <> []);
  check "report digest identical traced vs untraced" equal;
  obs_result :=
    Some
      {
        ob_ns_plain = ns_plain;
        ob_ns_disabled = ns_disabled;
        ob_overhead_pct = overhead_pct;
        ob_t_off = t_off;
        ob_t_on = t_on;
        ob_events = events;
        ob_metrics = metrics;
        ob_equal = equal;
      }

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

(* P5 — static taint-flow pre-pass: IFT covers whose destinations lie
   outside the static taint cone of the operand register are discharged
   without a checker call.  Pruning must not perturb the report: the
   prune-off run trails the same covers behind an identical mid-stream
   checker sequence, so both modes land on the same digest (any divergence
   would mean the word-level abstraction dropped a reachable flow). *)

type static_flow_record = {
  sf_pruned : int;  (* IFT covers discharged statically (prune on) *)
  sf_flow_props : int;  (* flow covers considered (same in both modes) *)
  sf_t_on : float;
  sf_t_off : float;
  sf_equal : bool;  (* digests identical across modes *)
  sf_digest : string;
}

let static_flow_result : static_flow_record option ref = ref None

let static_flow_bench () =
  section "P5"
    "Static taint-flow pre-pass - IFT covers pruned vs dispatched, cold wall-clock";
  let design, stimulus, instructions, transmitters, light_config =
    engine_workload ()
  in
  let run_with static_flow_prune =
    let t0 = Unix.gettimeofday () in
    let r =
      Synthlc.Engine.run ~config:light_config ~synth_config:light_config
        ~static_flow_prune ~stimulus ~design ~jobs:1
        ~exclude_sources:[ "IF"; "scbCmt" ]
        ~instructions ~transmitters
        ~kinds:[ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
        ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_on, r_on = run_with Synthlc.Types.Prune_on in
  let t_off, r_off = run_with Synthlc.Types.Prune_off in
  let pruned = r_on.Synthlc.Engine.total_flow_pruned_static in
  let dg_on = Synthlc.Engine.report_digest r_on in
  let dg_off = Synthlc.Engine.report_digest r_off in
  Printf.printf
    "  pre-pass on : %6.1fs (%d IFT covers, %d discharged statically)\n" t_on
    r_on.Synthlc.Engine.total_flow_props pruned;
  Printf.printf "  pre-pass off: %6.1fs (%d IFT covers, all dispatched)\n"
    t_off r_off.Synthlc.Engine.total_flow_props;
  Printf.printf "  report digests: on %s, off %s\n" dg_on dg_off;
  check "pre-pass discharges at least one IFT cover" (pruned > 0);
  check "both modes consider the same covers"
    (r_on.Synthlc.Engine.total_flow_props
    = r_off.Synthlc.Engine.total_flow_props);
  check "report digest identical across modes" (dg_on = dg_off);
  static_flow_result :=
    Some
      {
        sf_pruned = pruned;
        sf_flow_props = r_on.Synthlc.Engine.total_flow_props;
        sf_t_on = t_on;
        sf_t_off = t_off;
        sf_equal = dg_on = dg_off;
        sf_digest = dg_on;
      }

(* P6 — incremental-SAT overhaul: structural hashing (CSE) in the Tseitin
   encoder plus clause-DB reduction in the solver, measured on a cold
   cover batch with the simulation pre-pass off so every property is
   discharged by the SAT path.  The legacy arm encodes without CSE (the
   pre-overhaul encoding; reduction is always on and never fires on the
   default arm); the default arm must be at least 1.3x faster while
   synthesizing the identical µPATH set. *)

type sat_record = {
  sb_t_legacy : float;  (* cover batch, cse off *)
  sb_t_new : float;  (* cover batch, defaults *)
  sb_speedup : float;
  sb_conflicts_legacy : float;
  sb_conflicts_new : float;
  sb_cse_hits : int;
  sb_cse_lookups : int;
  sb_cse_hit_rate : float;
  sb_reduce_events : int;
  sb_learnt_peak : int;
  sb_equal : bool;  (* result digests identical legacy vs default *)
  sb_digest : string;  (* default arm's Mupath.Synth.result_digest *)
}

let sat_result : sat_record option ref = ref None

let sat_bench () =
  section "P6"
    "SAT overhaul - clause-DB reduction + structural hashing, cold cover batch";
  let design, _, instructions, _, light_config = engine_workload () in
  (* DIV is the SAT-heavy instruction in both profiles' ISA lists.  The
     batch runs at a deeper unrolling than the engine workload: depth is
     where the encoder and solver dominate, and where the overhaul pays. *)
  let iuv = List.nth instructions 1 in
  let batch_config =
    {
      light_config with
      Checker.sim_episodes = 0;
      bmc_depth = max 20 light_config.Checker.bmc_depth;
    }
  in
  let metric key snap = try List.assoc key snap with Not_found -> 0. in
  let run_batch cfg =
    let meta = design () in
    Obs.enable ();
    Obs.reset ();
    let t0 = Unix.gettimeofday () in
    let r =
      Mupath.Synth.run ~config:cfg ~presim_episodes:0 ~meta ~iuv
        ~iuv_pc:Designs.Core.iuv_pc ()
    in
    let t = Unix.gettimeofday () -. t0 in
    let snap = Obs.Metrics.snapshot () in
    Obs.disable ();
    Obs.reset ();
    (t, r, snap)
  in
  let t_legacy, r_legacy, m_legacy =
    run_batch { batch_config with Checker.encode_cse = false }
  in
  let t_new, r_new, m_new = run_batch batch_config in
  let sp = if t_new > 0. then t_legacy /. t_new else 1. in
  let conflicts_legacy = metric "sat.conflicts.sum" m_legacy in
  let conflicts_new = metric "sat.conflicts.sum" m_new in
  let cse_hits = int_of_float (metric "sat.cse_hits" m_new) in
  let cse_lookups = int_of_float (metric "sat.cse_lookups" m_new) in
  let cse_rate =
    if cse_lookups = 0 then 0.
    else float_of_int cse_hits /. float_of_int cse_lookups
  in
  let reduces = int_of_float (metric "sat.reduce_events" m_new) in
  let learnt_peak = int_of_float (metric "sat.learnt_peak" m_new) in
  let dg_legacy = Mupath.Synth.result_digest r_legacy in
  let dg_new = Mupath.Synth.result_digest r_new in
  Printf.printf "  legacy (no cse): %6.1fs  (%.0f conflicts)\n" t_legacy
    conflicts_legacy;
  Printf.printf "  defaults       : %6.1fs  (%.0f conflicts)\n" t_new
    conflicts_new;
  Printf.printf
    "  speedup: %.2fx | cse: %d/%d hits (%.1f%%) | reduce events: %d | \
     learnt peak: %d\n"
    sp cse_hits cse_lookups (100. *. cse_rate) reduces learnt_peak;
  Printf.printf "  result digests: legacy %s, defaults %s\n" dg_legacy dg_new;
  check "defaults at least 1.3x faster on the cold cover batch" (sp >= 1.3);
  check "encoding changes preserve the synthesized uPATH set"
    (r_legacy.Mupath.Synth.paths = r_new.Mupath.Synth.paths
    && r_legacy.Mupath.Synth.decisions = r_new.Mupath.Synth.decisions);
  check "structural hashing sees cache hits" (cse_hits > 0);
  sat_result :=
    Some
      {
        sb_t_legacy = t_legacy;
        sb_t_new = t_new;
        sb_speedup = sp;
        sb_conflicts_legacy = conflicts_legacy;
        sb_conflicts_new = conflicts_new;
        sb_cse_hits = cse_hits;
        sb_cse_lookups = cse_lookups;
        sb_cse_hit_rate = cse_rate;
        sb_reduce_events = reduces;
        sb_learnt_peak = learnt_peak;
        sb_equal = dg_legacy = dg_new;
        sb_digest = dg_new;
      }
