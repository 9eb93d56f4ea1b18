(* Benchmark/reproduction harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index), then runs
   Bechamel micro-benchmarks of the substrate.

   Usage:
     dune exec bench/main.exe                 # quick profile, all experiments
     REPRO_PROFILE=full dune exec bench/main.exe
     dune exec bench/main.exe -- E1 E4        # selected experiments only
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- --json P1    # also write BENCH_results.json
     dune exec bench/main.exe -- -j 4 P1      # parallel fan-out width *)

let experiments =
  [
    ("E7", Experiments.e7);
    ("E1", Experiments.e1);
    ("E2", Experiments.e2);
    ("E3", Experiments.e3);
    ("E4", Experiments.e4);
    ("E5", Experiments.e5);
    ("E10", Experiments.e10);
    ("E12", Experiments.e12);
    ("E13", Experiments2.e13);
    ("E8", Experiments2.e8);
    ("E9", Experiments2.e9_e6);
    ("E11", Experiments2.e11);
    ("A1", Experiments2.ablation_pruning);
    ("A2", Experiments2.ablation_sim_assist);
    ("P1", Experiments2.parallel_speedup);
    ("P2", Experiments2.cache_warmup);
    ("P3", Experiments2.static_prune_bench);
    ("P4", Experiments2.obs_overhead);
    ("P5", Experiments2.static_flow_bench);
    ("P6", Experiments2.sat_bench);
    ("P7", Experiments3.fuzz_campaign);
    ("P8", Experiments3.absint_bench);
    ("P9", Experiments3.frontend_bench);
    ("P10", Experiments3.sweep_bench);
  ]

(* --- Bechamel micro-benchmarks of the substrates ---------------------- *)

let micro_benchmarks () =
  let open Bechamel in
  let bitvec_mul =
    Test.make ~name:"bitvec 8x8 mul"
      (Staged.stage (fun () ->
           let a = Bitvec.of_int ~width:8 173 and b = Bitvec.of_int ~width:8 91 in
           ignore (Bitvec.mul a b)))
  in
  let bitvec_udiv =
    Test.make ~name:"bitvec 8-bit udiv"
      (Staged.stage (fun () ->
           let a = Bitvec.of_int ~width:8 173 and b = Bitvec.of_int ~width:8 7 in
           ignore (Bitvec.udiv a b)))
  in
  let meta = Designs.Core.build Designs.Core.baseline in
  let nl = meta.Designs.Meta.nl in
  let sim = Sim.create nl in
  let in0 = Option.get (Hdl.Netlist.find_named nl Designs.Core.sig_if_instr_in0) in
  let in1 = Option.get (Hdl.Netlist.find_named nl Designs.Core.sig_if_instr_in1) in
  let nop = Isa.encode Isa.nop in
  let sim_cycle =
    Test.make ~name:"core simulator cycle"
      (Staged.stage (fun () ->
           Sim.poke sim in0 nop;
           Sim.poke sim in1 nop;
           Sim.eval sim;
           Sim.step sim))
  in
  let sat_php =
    Test.make ~name:"SAT pigeonhole php(5)"
      (Staged.stage (fun () ->
           let s = Sat.Solver.create () in
           let holes = 5 in
           let var p h = (p * holes) + h in
           for _ = 0 to ((holes + 1) * holes) - 1 do
             ignore (Sat.Solver.new_var s)
           done;
           for p = 0 to holes do
             Sat.Solver.add_clause s
               (List.init holes (fun h -> Sat.Solver.pos (var p h)))
           done;
           for h = 0 to holes - 1 do
             for p1 = 0 to holes do
               for p2 = p1 + 1 to holes do
                 Sat.Solver.add_clause s
                   [ Sat.Solver.neg_of_var (var p1 h); Sat.Solver.neg_of_var (var p2 h) ]
               done
             done
           done;
           assert (Sat.Solver.solve s = Sat.Solver.Unsat)))
  in
  let elaborate =
    Test.make ~name:"elaborate cva6_lite"
      (Staged.stage (fun () -> ignore (Designs.Core.build Designs.Core.baseline)))
  in
  let blast_step =
    Test.make ~name:"blast cva6_lite to depth 2"
      (Staged.stage (fun () ->
           let meta = Designs.Core.build Designs.Core.baseline in
           let b = Mc.Blast.create ~initial:`Reset ~assumes:[] meta.Designs.Meta.nl in
           Mc.Blast.ensure_depth b 2))
  in
  let tests =
    Test.make_grouped ~name:"substrates"
      [ bitvec_mul; bitvec_udiv; sim_cycle; sat_php; elaborate; blast_step ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Printf.printf "\n=======================================================\n";
  Printf.printf "Micro-benchmarks (Bechamel, monotonic clock)\n";
  Printf.printf "=======================================================\n%!";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ t ] -> Printf.printf "%-38s %14.1f ns/run\n" name t
      | _ -> Printf.printf "%-38s (no estimate)\n" name)
    results

let time_budget =
  (* Optional wall-clock guard: once exceeded, remaining experiments are
     skipped (each prints a SKIPPED line) so a tee'd run always terminates. *)
  match Sys.getenv_opt "REPRO_TIME_BUDGET" with
  | Some s -> float_of_string_opt s
  | None -> None

(* --- machine-readable results (--json) -------------------------------- *)

type exp_row = { row_id : string; row_time : float; row_props : int; row_status : string }

let bucket_props () =
  Experiments.core_stats.Experiments.props + Experiments.cache_stats.Experiments.props

let write_json path ~profile ~jobs ~total rows =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"profile\": \"%s\",\n" profile;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"total_time_s\": %.3f,\n" total;
  add "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      add "    {\"id\": \"%s\", \"time_s\": %.3f, \"props\": %d, \"status\": \"%s\"}%s\n"
        r.row_id r.row_time r.row_props r.row_status
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  (match !Experiments2.speedup with
  | Some s ->
    add "  \"parallel\": {\"jobs\": %d, \"cores\": %d, \"t_seq_s\": %.3f, \"t_par_s\": %.3f, \"speedup\": %.3f, \"deterministic\": %b, \"mupath_props\": %d, \"flow_props\": %d},\n"
      s.Experiments2.sp_jobs s.Experiments2.sp_cores s.Experiments2.sp_t_seq
      s.Experiments2.sp_t_par s.Experiments2.sp_speedup s.Experiments2.sp_equal
      s.Experiments2.sp_mupath_props s.Experiments2.sp_flow_props
  | None -> add "  \"parallel\": null,\n");
  (match !Experiments2.cache_result with
  | Some c ->
    add "  \"cache\": {\"t_cold_s\": %.3f, \"t_warm_s\": %.3f, \"speedup\": %.3f, \"checker_calls\": %d, \"warm_hits\": %d, \"warm_hit_rate\": %.4f, \"bit_identical\": %b, \"report_digest\": \"%s\"},\n"
      c.Experiments2.vc_t_cold c.Experiments2.vc_t_warm c.Experiments2.vc_speedup
      c.Experiments2.vc_calls c.Experiments2.vc_hits c.Experiments2.vc_hit_rate
      c.Experiments2.vc_equal c.Experiments2.vc_digest
  | None -> add "  \"cache\": null,\n");
  (match !Experiments2.static_prune_result with
  | Some s ->
    add "  \"static_prune\": {\"covers_pruned\": %d, \"duv_props_on\": %d, \"duv_props_off\": %d, \"t_on_s\": %.3f, \"t_off_s\": %.3f, \"digest_identical\": %b, \"report_digest\": \"%s\"},\n"
      s.Experiments2.st_pruned s.Experiments2.st_duv_props_on
      s.Experiments2.st_duv_props_off s.Experiments2.st_t_on
      s.Experiments2.st_t_off s.Experiments2.st_equal s.Experiments2.st_digest
  | None -> add "  \"static_prune\": null,\n");
  (match !Experiments2.static_flow_result with
  | Some s ->
    add "  \"static_flow\": {\"covers_pruned\": %d, \"flow_props\": %d, \"t_on_s\": %.3f, \"t_off_s\": %.3f, \"digest_identical\": %b, \"report_digest\": \"%s\"},\n"
      s.Experiments2.sf_pruned s.Experiments2.sf_flow_props
      s.Experiments2.sf_t_on s.Experiments2.sf_t_off s.Experiments2.sf_equal
      s.Experiments2.sf_digest
  | None -> add "  \"static_flow\": null,\n");
  (match !Experiments2.sat_result with
  | Some s ->
    add "  \"sat\": {\"t_legacy_s\": %.3f, \"t_new_s\": %.3f, \"speedup\": %.3f, \"conflicts_legacy\": %.0f, \"conflicts_new\": %.0f, \"cse_hits\": %d, \"cse_lookups\": %d, \"cse_hit_rate\": %.4f, \"reduce_events\": %d, \"learnt_peak\": %d, \"digest_identical\": %b, \"report_digest\": \"%s\"},\n"
      s.Experiments2.sb_t_legacy s.Experiments2.sb_t_new
      s.Experiments2.sb_speedup s.Experiments2.sb_conflicts_legacy
      s.Experiments2.sb_conflicts_new s.Experiments2.sb_cse_hits
      s.Experiments2.sb_cse_lookups s.Experiments2.sb_cse_hit_rate
      s.Experiments2.sb_reduce_events s.Experiments2.sb_learnt_peak
      s.Experiments2.sb_equal s.Experiments2.sb_digest
  | None -> add "  \"sat\": null,\n");
  (match !Experiments3.fuzz_result with
  | Some f ->
    add "  \"fuzz\": {\"seed\": %d, \"count\": %d, \"designs\": %d, \"failures\": %d, \"skipped\": %d, \"checker_props\": %d, \"pruned_static\": %d, \"netlist_digests\": \"%s\", \"t_total_s\": %.3f},\n"
      f.Experiments3.fz_seed f.Experiments3.fz_count f.Experiments3.fz_designs
      f.Experiments3.fz_failures f.Experiments3.fz_skipped
      f.Experiments3.fz_checker_props f.Experiments3.fz_pruned_static
      f.Experiments3.fz_digests f.Experiments3.fz_t_total
  | None -> add "  \"fuzz\": null,\n");
  (match !Experiments3.absint_result with
  | Some a ->
    add "  \"absint\": {\"covers_pruned\": %d, \"pruned_static\": %d, \"t_on_s\": %.3f, \"t_off_s\": %.3f, \"t_audit_s\": %.3f, \"digest_identical\": %b, \"report_digest\": \"%s\", \"vars_kb_on\": %d, \"vars_kb_off\": %d, \"kb_set_identical\": %b, \"lint_info\": %d},\n"
      a.Experiments3.ab_covers_pruned a.Experiments3.ab_pruned_static
      a.Experiments3.ab_t_on a.Experiments3.ab_t_off a.Experiments3.ab_t_audit
      a.Experiments3.ab_equal a.Experiments3.ab_digest
      a.Experiments3.ab_vars_kb_on a.Experiments3.ab_vars_kb_off
      a.Experiments3.ab_kb_equal a.Experiments3.ab_lint_info
  | None -> add "  \"absint\": null,\n");
  (match !Experiments3.frontend_result with
  | Some f ->
    add "  \"frontend\": {\"designs\": %d, \"roundtrip_identical\": %b, \"warnings\": %d, \"netlist_digests\": \"%s\", \"t_export_s\": %.3f, \"t_import_s\": %.3f, \"run_identical\": %b, \"run_digest\": \"%s\", \"t_run_s\": %.3f},\n"
      f.Experiments3.fe_designs f.Experiments3.fe_roundtrip_identical
      f.Experiments3.fe_warnings f.Experiments3.fe_digests
      f.Experiments3.fe_t_export f.Experiments3.fe_t_import
      f.Experiments3.fe_run_identical f.Experiments3.fe_run_digest
      f.Experiments3.fe_t_run
  | None -> add "  \"frontend\": null,\n");
  (match !Experiments3.sweep_result with
  | Some s ->
    add "  \"sweep\": {\"comb_nodes\": %d, \"merged\": %d, \"classes\": %d, \"t_off_s\": %.3f, \"t_on_s\": %.3f, \"digest_identical\": %b, \"report_digest\": \"%s\", \"sem_hits\": %d, \"sem_misses\": %d, \"sem_identical\": %b},\n"
      s.Experiments3.sw_comb_nodes s.Experiments3.sw_merged
      s.Experiments3.sw_classes s.Experiments3.sw_t_off s.Experiments3.sw_t_on
      s.Experiments3.sw_equal s.Experiments3.sw_digest
      s.Experiments3.sw_sem_hits s.Experiments3.sw_sem_misses
      s.Experiments3.sw_sem_equal
  | None -> add "  \"sweep\": null,\n");
  (match !Experiments2.obs_result with
  | Some o ->
    add "  \"obs\": {\"ns_plain\": %.1f, \"ns_disabled\": %.1f, \"disabled_overhead_pct\": %.3f, \"t_untraced_s\": %.3f, \"t_traced_s\": %.3f, \"events\": %d, \"digest_identical\": %b},\n"
      o.Experiments2.ob_ns_plain o.Experiments2.ob_ns_disabled
      o.Experiments2.ob_overhead_pct o.Experiments2.ob_t_off
      o.Experiments2.ob_t_on o.Experiments2.ob_events o.Experiments2.ob_equal
  | None -> add "  \"obs\": null,\n");
  (* The traced run's metric snapshot, merged in as one flat object (the
     same shape `synthlc_cli --metrics` writes). *)
  (match !Experiments2.obs_result with
  | Some o when o.Experiments2.ob_metrics <> [] ->
    add "  \"metrics\": {\n";
    List.iteri
      (fun i (k, v) ->
        add "    \"%s\": %s%s\n" k
          (if Float.is_integer v && Float.abs v < 1e15 then
             Printf.sprintf "%.0f" v
           else Printf.sprintf "%.17g" v)
          (if i = List.length o.Experiments2.ob_metrics - 1 then "" else ","))
      o.Experiments2.ob_metrics;
    add "  }\n"
  | Some _ | None -> add "  \"metrics\": null\n");
  add "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s\n" path

let () =
  let raw = Array.to_list Sys.argv |> List.tl in
  let json = ref false in
  let sel = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v >= 1 -> Experiments2.requested_jobs := v
      | _ -> failwith "bench: -j expects a positive integer");
      parse rest
    | x :: rest ->
      sel := x :: !sel;
      parse rest
  in
  parse raw;
  let t0 = Unix.gettimeofday () in
  let profile =
    match Experiments.profile with `Quick -> "quick" | `Full -> "full"
  in
  Printf.printf "RTL2MuPATH + SynthLC reproduction benches (profile: %s)\n" profile;
  let selected =
    match List.rev !sel with
    | [] -> List.map fst experiments @ [ "micro" ]
    | l -> l
  in
  (* Unknown IDs are a harness error (exit 2), not a silent no-op: a CI
     step selecting a misspelled experiment must fail loudly rather than
     produce an empty-but-green run. *)
  let known = List.map fst experiments @ [ "micro" ] in
  (match List.filter (fun id -> not (List.mem id known)) selected with
  | [] -> ()
  | bad ->
    Printf.eprintf "bench: unknown experiment id(s): %s (expected: %s)\n"
      (String.concat ", " bad)
      (String.concat ", " known);
    exit 2);
  let rows = ref [] in
  List.iter
    (fun (id, f) ->
      if List.mem id selected then begin
        let over_budget =
          match time_budget with
          | Some b -> Unix.gettimeofday () -. t0 > b
          | None -> false
        in
        let p0 = bucket_props () in
        let te = Unix.gettimeofday () in
        let status =
          if over_budget then begin
            Printf.printf "  [SKIPPED] %s: REPRO_TIME_BUDGET exceeded\n%!" id;
            "skipped"
          end
          else
            try
              f ();
              "ok"
            with e ->
              Printf.printf "  [EXPERIMENT-ERROR] %s: %s\n%!" id
                (Printexc.to_string e);
              "error"
        in
        rows :=
          {
            row_id = id;
            row_time = Unix.gettimeofday () -. te;
            row_props = bucket_props () - p0;
            row_status = status;
          }
          :: !rows
      end)
    experiments;
  if List.mem "micro" selected then begin
    let te = Unix.gettimeofday () in
    micro_benchmarks ();
    rows :=
      {
        row_id = "micro";
        row_time = Unix.gettimeofday () -. te;
        row_props = 0;
        row_status = "ok";
      }
      :: !rows
  end;
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench time: %.1fs\n" total;
  if !json then
    write_json "BENCH_results.json" ~profile
      ~jobs:
        (if !Experiments2.requested_jobs >= 1 then !Experiments2.requested_jobs
         else Pool.default_jobs ())
      ~total (List.rev !rows)
