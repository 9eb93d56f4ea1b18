(* P7 — design-space fuzz campaign (DESIGN.md §16).

   A small fixed-seed campaign over the parameterized pipeline generator:
   every sampled design runs the full differential oracle battery
   (validate, known-bits containment, lint admission, elaboration
   determinism, frontend round trip, -j1/-j2 digest identity, warm-cache
   identity, prune-mode identity, sweep identity, taint-grid
   containment).  The bench gate pins the campaign's
   semantic outputs — zero failures and the deterministic per-design
   netlist digests — while timings stay warn-only. *)

let section = Experiments.section
let check = Experiments.check

type fuzz_row = {
  fz_seed : int;
  fz_count : int;
  fz_designs : int;
  fz_failures : int;
  fz_skipped : int;
  fz_checker_props : int;
  fz_pruned_static : int;
  fz_digests : string;  (* comma-joined per-design netlist digests *)
  fz_t_total : float;
}

let fuzz_result : fuzz_row option ref = ref None

let fuzz_campaign () =
  section "P7" "Design-space fuzzing - generator + differential oracle battery";
  let seed = 42 in
  let count = match Experiments.profile with `Quick -> 2 | `Full -> 8 in
  let summary =
    Fuzz.Driver.campaign ~seed ~count
      ~log:(fun l -> Printf.printf "  %s\n%!" l)
      ()
  in
  let digests =
    String.concat ","
      (List.map
         (fun (_, (o : Fuzz.Oracle.outcome)) -> o.Fuzz.Oracle.netlist_digest)
         summary.Fuzz.Driver.designs)
  in
  let checker_props =
    List.fold_left
      (fun acc (_, (o : Fuzz.Oracle.outcome)) -> acc + o.Fuzz.Oracle.checker_props)
      0 summary.Fuzz.Driver.designs
  in
  let pruned =
    List.fold_left
      (fun acc (_, (o : Fuzz.Oracle.outcome)) ->
        acc + o.Fuzz.Oracle.pruned_static + o.Fuzz.Oracle.flow_pruned_static)
      0 summary.Fuzz.Driver.designs
  in
  Printf.printf
    "  %d designs, %d failures, %d skipped, %d checker props, %d covers \
     statically pruned, %.1fs\n"
    (List.length summary.Fuzz.Driver.designs)
    (List.length summary.Fuzz.Driver.failures)
    summary.Fuzz.Driver.skipped checker_props pruned
    summary.Fuzz.Driver.total_time_s;
  check "fuzz campaign ran every requested design"
    (List.length summary.Fuzz.Driver.designs = count
    && summary.Fuzz.Driver.skipped = 0);
  check "every oracle green on every generated design"
    (summary.Fuzz.Driver.failures = []);
  check "static prunes had work on generated designs" (pruned > 0);
  fuzz_result :=
    Some
      {
        fz_seed = seed;
        fz_count = count;
        fz_designs = List.length summary.Fuzz.Driver.designs;
        fz_failures = List.length summary.Fuzz.Driver.failures;
        fz_skipped = summary.Fuzz.Driver.skipped;
        fz_checker_props = checker_props;
        fz_pruned_static = pruned;
        fz_digests = digests;
        fz_t_total = summary.Fuzz.Driver.total_time_s;
      }

(* P8 — known-bits abstract interpretation (DESIGN.md §17).

   One dataflow core ({!Hdl.Absint}) feeds three clients; this experiment
   pins each one's contract:

   - prune: the gated demo DUV's "gate" µFSM keeps two states the plain
     FSM abstraction cannot kill but known-bits can — the absint prune
     must discharge both, and the report digest must be bit-identical
     across --absint on/off/audit (pruned counters are digest-excluded,
     pruned state names are digest-included in every mode);
   - SAT substitution: re-running the P6 cover batch with
     [Checker.known_bits] off must allocate strictly more induction-side
     solver variables while synthesizing the identical µPATH set (the
     BMC side is digest- and CNF-identical by construction: per-step
     folding of the reset constants subsumes the substitution there);
   - lint: the A-series pass must produce diagnostics on the built-in
     designs (all informational — built-ins stay warning-free). *)

type absint_row = {
  ab_covers_pruned : int;  (* absint-discharged covers, mode on *)
  ab_pruned_static : int;  (* base static prune, for scale *)
  ab_t_on : float;
  ab_t_off : float;
  ab_t_audit : float;
  ab_equal : bool;  (* digests identical across on/off/audit *)
  ab_digest : string;
  ab_vars_kb_on : int;  (* induction solver vars, known-bits on *)
  ab_vars_kb_off : int;
  ab_kb_equal : bool;  (* substitution preserves the synthesized set *)
  ab_lint_info : int;  (* A-series diagnostics across built-in designs *)
}

let absint_result : absint_row option ref = ref None

let absint_bench () =
  section "P8"
    "Known-bits absint - tri-mode prune identity, SAT substitution, A-series \
     lint";
  (* Tri-mode engine runs on the gated demo DUV (see Designs.Gated). *)
  let gated_config =
    {
      Mc.Checker.default_config with
      Mc.Checker.bmc_depth = 10;
      sim_episodes = 8;
      sim_cycles = 16;
    }
  in
  let run_gated absint =
    let t0 = Unix.gettimeofday () in
    let r =
      Synthlc.Engine.run ~config:gated_config ~synth_config:gated_config
        ~absint
        ~design:(fun () -> Designs.Gated.build ())
        ~jobs:1
        ~instructions:[ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD ]
        ~transmitters:[ Isa.ADD ]
        ~kinds:[ Synthlc.Types.Intrinsic ]
        ~revisit_count_labels:[] ~iuv_pc:Designs.Gated.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_on, r_on = run_gated Synthlc.Types.Prune_on in
  let t_off, r_off = run_gated Synthlc.Types.Prune_off in
  let t_audit, r_audit = run_gated Synthlc.Types.Prune_audit in
  let sum_stage f (r : Synthlc.Engine.report) =
    List.fold_left
      (fun acc (t : Synthlc.Engine.transponder_report) ->
        List.fold_left
          (fun acc (_, (s : Mupath.Synth.stage_stats)) -> acc + f s)
          acc t.Synthlc.Engine.synth.Mupath.Synth.stage_stats)
      0 r.Synthlc.Engine.transponders
  in
  let covers_pruned =
    sum_stage (fun s -> s.Mupath.Synth.pruned_absint) r_on
  in
  let pruned_static =
    sum_stage (fun s -> s.Mupath.Synth.pruned_static) r_on
  in
  let dg_on = Synthlc.Engine.report_digest r_on in
  let dg_off = Synthlc.Engine.report_digest r_off in
  let dg_audit = Synthlc.Engine.report_digest r_audit in
  Printf.printf
    "  absint on   : %6.1fs (%d covers known-bits-pruned, %d static-pruned)\n"
    t_on covers_pruned pruned_static;
  Printf.printf "  absint off  : %6.1fs (pruned covers re-dispatched)\n" t_off;
  Printf.printf "  absint audit: %6.1fs\n" t_audit;
  Printf.printf "  report digests: on %s, off %s, audit %s\n" dg_on dg_off
    dg_audit;
  check "known-bits prune discharges covers beyond the FSM abstraction"
    (covers_pruned > 0);
  check "report digest identical across absint on/off/audit"
    (dg_on = dg_off && dg_on = dg_audit);
  (* SAT substitution on a cold cover batch (the P6 batch shape, on the
     gated DUV — the workload with register-level known bits in both
     profiles): same synthesized set, fewer induction-side solver
     variables.  Var count is an encoder property, not a solve-time one,
     so the depth stays at the workload default. *)
  let batch_config kb =
    {
      gated_config with
      Mc.Checker.sim_episodes = 0;
      known_bits = kb;
    }
  in
  let run_batch kb =
    let meta = Designs.Gated.build () in
    Obs.enable ();
    Obs.reset ();
    let r =
      Mupath.Synth.run ~config:(batch_config kb) ~presim_episodes:0 ~meta
        ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
        ~iuv_pc:Designs.Gated.iuv_pc ()
    in
    let snap = Obs.Metrics.snapshot () in
    Obs.disable ();
    Obs.reset ();
    let vars =
      int_of_float (try List.assoc "sat.ind_vars" snap with Not_found -> 0.)
    in
    (vars, r)
  in
  let vars_kb, r_kb = run_batch true in
  let vars_plain, r_plain = run_batch false in
  Printf.printf
    "  cover batch induction vars: %d (known-bits on) vs %d (off), %d saved\n"
    vars_kb vars_plain (vars_plain - vars_kb);
  check "known-bits substitution drops induction solver variables"
    (vars_kb < vars_plain);
  let kb_equal =
    r_kb.Mupath.Synth.paths = r_plain.Mupath.Synth.paths
    && r_kb.Mupath.Synth.decisions = r_plain.Mupath.Synth.decisions
  in
  check "substitution preserves the synthesized uPATH set" kb_equal;
  (* A-series lint across the built-in designs: the pass has real findings
     (stuck registers, dead mux arms) but every one is informational. *)
  let designs =
    [
      Designs.Ibex.build ();
      Designs.Core.build Designs.Core.baseline;
      Designs.Gated.build ();
    ]
  in
  let a_diags =
    List.concat_map
      (fun meta ->
        List.filter
          (fun (d : Lint.Diagnostic.t) -> d.Lint.Diagnostic.code.[0] = 'A')
          (Lint.Driver.run_design meta).Lint.Diagnostic.diags)
      designs
  in
  Printf.printf "  A-series lint: %d diagnostic(s) across %d built-ins\n"
    (List.length a_diags) (List.length designs);
  check "A-series lint fires on the built-in designs" (a_diags <> []);
  check "A-series findings are all informational"
    (List.for_all
       (fun (d : Lint.Diagnostic.t) ->
         d.Lint.Diagnostic.severity = Lint.Diagnostic.Info)
       a_diags);
  absint_result :=
    Some
      {
        ab_covers_pruned = covers_pruned;
        ab_pruned_static = pruned_static;
        ab_t_on = t_on;
        ab_t_off = t_off;
        ab_t_audit = t_audit;
        ab_equal = dg_on = dg_off && dg_on = dg_audit;
        ab_digest = dg_on;
        ab_vars_kb_on = vars_kb;
        ab_vars_kb_off = vars_plain;
        ab_kb_equal = kb_equal;
        ab_lint_info = List.length a_diags;
      }

(* P9 — Yosys-JSON frontend (DESIGN.md §18).

   The importer's contract is that an exported built-in re-imports as the
   structurally identical netlist ([Hdl.Netlist.digest] fixpoint, zero
   admission warnings), and that a synthesis run over the imported design
   produces the bit-identical µPATH report.  The bench gate pins both:
   per-design round-trip digests and the imported-vs-builtin report
   digest on the gated DUV.  Export/import wall times stay warn-only. *)

type frontend_row = {
  fe_designs : int;  (* built-ins round-tripped *)
  fe_roundtrip_identical : bool;  (* digest fixpoint on every design *)
  fe_warnings : int;  (* admission warnings across all round trips *)
  fe_digests : string;  (* comma-joined per-design netlist digests *)
  fe_t_export : float;
  fe_t_import : float;
  fe_run_identical : bool;  (* imported-vs-builtin report digest, gated *)
  fe_run_digest : string;
  fe_t_run : float;  (* mupath on the imported gated DUV *)
}

let frontend_result : frontend_row option ref = ref None

let frontend_bench () =
  section "P9" "Yosys-JSON frontend - round-trip fixpoint + imported-run identity";
  let builtins =
    [
      ("cva6_lite", fun () -> Designs.Core.build Designs.Core.baseline);
      ("ibex_lite", fun () -> Designs.Ibex.build ());
      ("gated", fun () -> Designs.Gated.build ());
      ("cva6_cache", fun () -> Designs.Cache.build ());
    ]
  in
  let t_export = ref 0. and t_import = ref 0. in
  let warnings = ref 0 in
  let identical = ref true in
  let digests =
    List.map
      (fun (name, build) ->
        let meta = build () in
        let nl = meta.Designs.Meta.nl in
        let t0 = Unix.gettimeofday () in
        let js = Frontend.Yosys.export_string nl in
        t_export := !t_export +. (Unix.gettimeofday () -. t0);
        let t1 = Unix.gettimeofday () in
        let imp = Frontend.Yosys.import_string ~design:name js in
        t_import := !t_import +. (Unix.gettimeofday () -. t1);
        warnings := !warnings + List.length imp.Frontend.Yosys.warnings;
        let d0 = Hdl.Netlist.digest nl
        and d1 = Hdl.Netlist.digest imp.Frontend.Yosys.nl in
        if d0 <> d1 then identical := false;
        Printf.printf "  %-10s %s -> %s (%d bytes, %d warning(s))\n" name
          (String.sub d0 0 12) (String.sub d1 0 12) (String.length js)
          (List.length imp.Frontend.Yosys.warnings);
        d0)
      builtins
  in
  check "export -> import is the netlist-digest identity on every built-in"
    !identical;
  check "round trips admit with zero warnings" (!warnings = 0);
  Printf.printf "  export %.3fs, import %.3fs across %d designs\n" !t_export
    !t_import (List.length builtins);
  (* Imported-run identity: synthesize on the gated DUV rebuilt from its
     own export + sidecar and demand the bit-identical report. *)
  let run meta =
    let config =
      {
        Mc.Checker.default_config with
        Mc.Checker.bmc_depth = 10;
        sim_episodes = 8;
        sim_cycles = 16;
      }
    in
    Mupath.Synth.run ~config ~meta
      ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
      ~iuv_pc:Designs.Gated.iuv_pc ()
  in
  let builtin_meta = Designs.Gated.build () in
  let imported =
    let js = Frontend.Yosys.export_string builtin_meta.Designs.Meta.nl in
    let imp = Frontend.Yosys.import_string ~design:"gated" js in
    let sidecar =
      Frontend.Sidecar.of_meta ~stimulus:Frontend.Sidecar.S_none
        ~iuv_pc:Designs.Gated.iuv_pc builtin_meta
    in
    Frontend.Sidecar.resolve imp.Frontend.Yosys.nl sidecar
  in
  let r_builtin = run builtin_meta in
  let t2 = Unix.gettimeofday () in
  let r_imported = run imported.Frontend.Sidecar.meta in
  let t_run = Unix.gettimeofday () -. t2 in
  let dg_builtin = Mupath.Synth.result_digest r_builtin in
  let dg_imported = Mupath.Synth.result_digest r_imported in
  Printf.printf "  gated report digest: builtin %s, imported %s (%.1fs)\n"
    dg_builtin dg_imported t_run;
  check "imported gated DUV synthesizes the bit-identical report"
    (dg_builtin = dg_imported);
  frontend_result :=
    Some
      {
        fe_designs = List.length builtins;
        fe_roundtrip_identical = !identical;
        fe_warnings = !warnings;
        fe_digests = String.concat "," digests;
        fe_t_export = !t_export;
        fe_t_import = !t_import;
        fe_run_identical = dg_builtin = dg_imported;
        fe_run_digest = dg_builtin;
        fe_t_run = t_run;
      }

(* P10 — equivalence-aware netlist reduction (DESIGN.md §19).

   Three contracts of the SAT sweep, pinned on gate-level variants
   produced by {!Hdl.Gateify} (the committed examples/ibex_lite_gl.json
   is this lowering serialized):

   - reduction: the gate-level ibex_lite sweeps at least 20% of its
     combinational nodes away (merge ratio is a semantic gate key);
   - tri-mode identity: a synthesis run over the gate-level gated DUV is
     report-digest-identical with sweep off / on / audit, and identical
     to the word-level original — canonical witnesses make the verdict
     stream encoding-independent;
   - semantic cache: a cold gate-level run fills the behavioral-key
     namespace and the word-level original replays from it warm with
     zero misses.  Wall-clock (off vs on) stays warn-only. *)

type sweep_row = {
  sw_comb_nodes : int;  (* gate-level ibex_lite combinational nodes *)
  sw_merged : int;  (* nodes swept away *)
  sw_classes : int;  (* proven classes with at least one merge *)
  sw_t_off : float;  (* gl gated synth, sweep off *)
  sw_t_on : float;  (* gl gated synth, sweep on *)
  sw_equal : bool;  (* digest identical off/on/audit + word-level *)
  sw_digest : string;
  sw_sem_hits : int;  (* warm word-level run, semantic namespace *)
  sw_sem_misses : int;
  sw_sem_equal : bool;  (* cross-variant cached digests identical *)
}

let sweep_result : sweep_row option ref = ref None

(* Gate-level variant of a built-in, metadata re-resolved by name over
   the lowered netlist — the in-process equivalent of export --gate-level
   followed by import. *)
let gl_variant ~stimulus ~iuv_pc build =
  let meta = build () in
  let gl_nl, _ = Hdl.Gateify.run meta.Designs.Meta.nl in
  let sc =
    Frontend.Sidecar.resolve gl_nl
      (Frontend.Sidecar.of_meta ~stimulus ~iuv_pc meta)
  in
  sc.Frontend.Sidecar.meta

let sweep_bench () =
  section "P10"
    "Equivalence sweep - gate-level reduction, tri-mode identity, semantic \
     cache";
  (* Reduction ratio on the gate-level ibex_lite. *)
  let gl_ibex =
    gl_variant ~stimulus:Frontend.Sidecar.S_ibex ~iuv_pc:2 Designs.Ibex.build
  in
  let _, _, stats =
    Hdl.Equiv.reduce
      ~barriers:(Designs.Meta.signals gl_ibex)
      gl_ibex.Designs.Meta.nl
  in
  let ratio =
    float_of_int stats.Hdl.Equiv.merged
    /. float_of_int (max 1 stats.Hdl.Equiv.comb_nodes)
  in
  Printf.printf
    "  gate-level ibex_lite: %d/%d comb nodes merged (%.1f%%), %d classes, \
     %d SAT queries\n"
    stats.Hdl.Equiv.merged stats.Hdl.Equiv.comb_nodes (100. *. ratio)
    stats.Hdl.Equiv.classes stats.Hdl.Equiv.sat_queries;
  check "gate-level sweep merges at least 20% of combinational nodes"
    (ratio >= 0.20);
  (* Tri-mode synthesis identity on the gate-level gated DUV. *)
  let gated_config =
    {
      Mc.Checker.default_config with
      Mc.Checker.bmc_depth = 10;
      sim_episodes = 8;
      sim_cycles = 16;
    }
  in
  let gl_gated () =
    gl_variant ~stimulus:Frontend.Sidecar.S_none ~iuv_pc:Designs.Gated.iuv_pc
      Designs.Gated.build
  in
  let run ?cache ?(semantic_cache = false) ~sweep meta =
    let t0 = Unix.gettimeofday () in
    let r =
      Mupath.Synth.run ?cache ~semantic_cache
        ~config:{ gated_config with Mc.Checker.sweep }
        ~meta
        ~iuv:(Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
        ~iuv_pc:Designs.Gated.iuv_pc ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_off, r_off = run ~sweep:Mc.Checker.Sweep_off (gl_gated ()) in
  let t_on, r_on = run ~sweep:Mc.Checker.Sweep_on (gl_gated ()) in
  let t_audit, r_audit = run ~sweep:Mc.Checker.Sweep_audit (gl_gated ()) in
  let _, r_word = run ~sweep:Mc.Checker.Sweep_off (Designs.Gated.build ()) in
  let dg_off = Mupath.Synth.result_digest r_off in
  let dg_on = Mupath.Synth.result_digest r_on in
  let dg_audit = Mupath.Synth.result_digest r_audit in
  let dg_word = Mupath.Synth.result_digest r_word in
  Printf.printf "  gl gated: off %.1fs, on %.1fs, audit %.1fs\n" t_off t_on
    t_audit;
  Printf.printf "  report digests: off %s, on %s, audit %s, word-level %s\n"
    dg_off dg_on dg_audit dg_word;
  let equal = dg_off = dg_on && dg_off = dg_audit && dg_off = dg_word in
  check "report digest identical across sweep off/on/audit and variants" equal;
  (* Semantic cache: cold gate-level fill, warm word-level replay. *)
  let dir = "_vcache_sweep_bench" in
  ignore (Vcache.clear_dir ~dir);
  let cold = Vcache.create ~dir () in
  let _, r_cold =
    run ~cache:cold ~semantic_cache:true ~sweep:Mc.Checker.Sweep_on
      (gl_gated ())
  in
  let warm = Vcache.create ~dir () in
  let _, r_warm =
    run ~cache:warm ~semantic_cache:true ~sweep:Mc.Checker.Sweep_on
      (Designs.Gated.build ())
  in
  let hits, misses, _ = Vcache.counters warm in
  let sem_equal =
    Mupath.Synth.result_digest r_cold = Mupath.Synth.result_digest r_warm
  in
  ignore (Vcache.clear_dir ~dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Printf.printf
    "  semantic cache: warm word-level run %d hits / %d misses, digest %s\n"
    hits misses
    (if sem_equal then "identical" else "DIVERGED");
  check "semantic namespace: word-level run replays the gate-level fill"
    (hits > 0 && misses = 0);
  check "cross-variant cached digests identical" sem_equal;
  sweep_result :=
    Some
      {
        sw_comb_nodes = stats.Hdl.Equiv.comb_nodes;
        sw_merged = stats.Hdl.Equiv.merged;
        sw_classes = stats.Hdl.Equiv.classes;
        sw_t_off = t_off;
        sw_t_on = t_on;
        sw_equal = equal;
        sw_digest = dg_off;
        sw_sem_hits = hits;
        sw_sem_misses = misses;
        sw_sem_equal = sem_equal;
      }
