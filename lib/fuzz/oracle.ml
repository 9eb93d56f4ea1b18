(* Differential oracle battery.  See oracle.mli. *)

type oracle =
  | O_validate
  | O_absint
  | O_lint
  | O_determinism
  | O_roundtrip
  | O_jobs
  | O_cache_warm
  | O_prune_audit
  | O_sweep

type verdict = Pass | Fail of string | Skipped

type outcome = {
  config : Gen.config;
  netlist_digest : string;
  report_digest : string option;
  verdicts : (oracle * verdict) list;
  mupath_props : int;
  flow_props : int;
  pruned_static : int;
  flow_pruned_static : int;
  checker_props : int;
  time_s : float;
}

let all_oracles =
  [
    O_validate;
    O_absint;
    O_lint;
    O_determinism;
    O_roundtrip;
    O_jobs;
    O_cache_warm;
    O_prune_audit;
    O_sweep;
  ]

let oracle_name = function
  | O_validate -> "validate"
  | O_absint -> "absint"
  | O_lint -> "lint"
  | O_determinism -> "determinism"
  | O_roundtrip -> "roundtrip"
  | O_jobs -> "jobs"
  | O_cache_warm -> "cache-warm"
  | O_prune_audit -> "prune-audit"
  | O_sweep -> "sweep"

let failure o =
  List.find_map
    (fun (orc, v) -> match v with Fail m -> Some (orc, m) | _ -> None)
    o.verdicts

let config_of ~depth ~episodes =
  {
    Mc.Checker.default_config with
    Mc.Checker.bmc_depth = depth;
    bmc_conflicts = 60_000;
    induction_max_k = 2;
    sim_episodes = episodes;
    sim_cycles = 44;
  }

(* Every generated pipeline has Ibex-lite's single fetch slot. *)
let stimulus = Designs.Stimulus.Ibex

(* One Engine.run over the generated design.  Exceptions (including the
   audit tripwires' [failwith]) are turned into [Error msg] so the caller
   can attribute them to the oracle the run serves. *)
let engine_run ~cache ~depth ~episodes ~jobs ~prune ~sweep cfg =
  let config = { (config_of ~depth ~episodes) with Mc.Checker.sweep } in
  try
    Ok
      (Synthlc.Engine.run ~cache ~config ~prune
         ?stimulus:(Designs.Stimulus.of_kind stimulus)
         ~design:(fun () -> Gen.build cfg)
         ~jobs
         ~instructions:[ Gen.pick_iuv cfg ]
         ~transmitters:(Gen.pick_transmitters cfg)
         ~kinds:[ Synthlc.Types.Intrinsic ]
         ~revisit_count_labels:[] ~iuv_pc:Gen.iuv_pc ())
  with
  | Failure m -> Error m
  | Invalid_argument m -> Error ("invalid argument: " ^ m)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run ?(depth = 6) ?(episodes = 3) ?workdir cfg =
  let t0 = Unix.gettimeofday () in
  let verdicts = ref [] in
  let push o v = verdicts := (o, v) :: !verdicts in
  let report = ref None in
  let netlist_digest = ref "" in
  (* Each step returns [true] to continue the battery. *)
  let step o f =
    match f () with
    | None ->
      push o Pass;
      true
    | Some msg ->
      push o (Fail msg);
      false
    | exception Failure m ->
      push o (Fail m);
      false
  in
  let base_digest = ref "" in
  let warm_counters = ref None in
  let workdir =
    Option.value workdir ~default:(Filename.get_temp_dir_name ())
  in
  let cache_dir =
    Filename.concat workdir
      (Printf.sprintf "vcache_%d_%s" (Unix.getpid ()) (Gen.name cfg))
  in
  rm_rf cache_dir;
  let check_engine ?(sweep = Mc.Checker.Sweep_off) ?(prune = `On) ~jobs ~judge
      () =
    let cache = Vcache.create ~dir:cache_dir () in
    match engine_run ~cache ~depth ~episodes ~jobs ~prune ~sweep cfg with
    | Error m -> Some m
    | Ok r -> judge cache r
  in
  let digest_equal what r =
    let d = Synthlc.Engine.report_digest r in
    if d = !base_digest then None
    else
      Some
        (Printf.sprintf "%s digest %s != baseline %s" what d !base_digest)
  in
  let continue =
    step O_validate (fun () ->
        let meta = Gen.build cfg in
        netlist_digest := Hdl.Netlist.digest meta.Designs.Meta.nl;
        match Hdl.Netlist.validate meta.Designs.Meta.nl with
        | () -> None
        | exception Failure m -> Some m)
  in
  let continue =
    continue
    && step O_absint (fun () ->
           (* Known-bits containment: the {!Hdl.Absint} facts must cover
              every concrete state of a randomized simulation — the same
              soundness invariant the prune, lint, and SAT-substitution
              clients all lean on. *)
           let nl = (Gen.build cfg).Designs.Meta.nl in
           let kb = Hdl.Absint.known_bits nl in
           let sim = Sim.create ~seed:7 nl in
           let nn = Hdl.Netlist.num_nodes nl in
           let violation = ref None in
           (for cycle = 0 to 23 do
              Sim.poke_random_inputs sim;
              Sim.eval sim;
              for s = 0 to nn - 1 do
                let known, value = kb.(s) in
                let concrete = Sim.peek sim s in
                if
                  !violation = None
                  && not (Bitvec.equal (Bitvec.logand concrete known) value)
                then
                  violation :=
                    Some
                      (Printf.sprintf
                         "cycle %d signal %d: value %s escapes known bits \
                          (k=%s, v=%s)"
                         cycle s
                         (Bitvec.to_hex_string concrete)
                         (Bitvec.to_hex_string known)
                         (Bitvec.to_hex_string value))
              done;
              Sim.step sim
            done);
           !violation)
  in
  let continue =
    continue
    && step O_lint (fun () ->
           let r = Lint.Driver.run_design (Gen.build cfg) in
           let errors =
             List.filter
               (fun (d : Lint.Diagnostic.t) -> d.severity = Lint.Diagnostic.Error)
               r.Lint.Diagnostic.diags
           in
           match errors with
           | [] -> None
           | d :: _ ->
             Some
               (Printf.sprintf "%d lint error(s), first %s: %s"
                  (List.length errors) d.Lint.Diagnostic.code
                  d.Lint.Diagnostic.message))
  in
  let continue =
    continue
    && step O_determinism (fun () ->
           let d2 = Hdl.Netlist.digest (Gen.build cfg).Designs.Meta.nl in
           if d2 = !netlist_digest then None
           else
             Some
               (Printf.sprintf "re-elaboration digest %s != %s" d2
                  !netlist_digest))
  in
  let continue =
    continue
    && step O_roundtrip (fun () ->
           (* Frontend round trip: export the generated design as Yosys
              JSON, import it back, and require digest identity with the
              original elaboration — the exporter, parser, cell mapping,
              and emission order all differentially tested on every fuzzed
              pipeline.  The sidecar writer/reader round-trips too. *)
           let meta = Gen.build cfg in
           let js = Frontend.Yosys.export_string meta.Designs.Meta.nl in
           match
             Frontend.Yosys.import_string ~design:(Gen.name cfg) js
           with
           | exception Frontend.Diag.Rejected r ->
             let first =
               match r.Lint.Diagnostic.diags with
               | d :: _ -> d.Lint.Diagnostic.message
               | [] -> "empty report"
             in
             Some ("re-import rejected: " ^ first)
           | { Frontend.Yosys.nl; warnings } -> (
             let d2 = Hdl.Netlist.digest nl in
             if d2 <> !netlist_digest then
               Some
                 (Printf.sprintf "round-trip digest %s != %s" d2
                    !netlist_digest)
             else if warnings <> [] then
               Some
                 (Printf.sprintf "re-import warned: %s"
                    (List.hd warnings).Lint.Diagnostic.message)
             else
               let sj =
                 Frontend.Json.to_string
                   (Frontend.Sidecar.of_meta ~stimulus ~iuv_pc:Gen.iuv_pc meta)
               in
               match
                 Frontend.Sidecar.resolve nl (Frontend.Json.parse_string sj)
               with
               | exception Frontend.Diag.Rejected r ->
                 let first =
                   match r.Lint.Diagnostic.diags with
                   | d :: _ -> d.Lint.Diagnostic.message
                   | [] -> "empty report"
                 in
                 Some ("sidecar round trip rejected: " ^ first)
               | sc ->
                 if sc.Frontend.Sidecar.iuv_pc <> Gen.iuv_pc then
                   Some "sidecar round trip changed iuv_pc"
                 else None))
  in
  (* Baseline cold run: -j1, every prune on.  Fills the verdict cache and
     anchors every digest comparison; a failure here is attributed to the
     jobs oracle only after the -j2 run, so baseline errors surface as
     O_jobs harness messages. *)
  let continue =
    continue
    && step O_jobs (fun () ->
           match
             check_engine ~jobs:1
               ~judge:(fun _cache r ->
                 report := Some r;
                 base_digest := Synthlc.Engine.report_digest r;
                 None)
               ()
           with
           | Some m -> Some ("baseline run: " ^ m)
           | None ->
             check_engine ~jobs:2
               ~judge:(fun cache r ->
                 match digest_equal "-j2" r with
                 | Some m -> Some m
                 | None ->
                   (* The -j2 run doubles as the warm-cache probe; stash
                      its counters for the next oracle. *)
                   let hits, misses, _ = Vcache.counters cache in
                   warm_counters := Some (hits, misses);
                   None)
               ())
  in
  let continue =
    continue
    && step O_cache_warm (fun () ->
           match !warm_counters with
           | None -> Some "warm run never executed"
           | Some (hits, misses) ->
             if misses > 0 then
               Some
                 (Printf.sprintf "warm run missed: hits=%d misses=%d" hits
                    misses)
             else if hits = 0 then Some "warm run served no cache hits"
             else None)
  in
  let continue =
    continue
    && step O_prune_audit
         (check_engine ~prune:`Audit ~jobs:1
            ~judge:(fun _cache r -> digest_equal "prune audit" r))
  in
  (* Sweep tri-mode identity: the equivalence-swept engines (and the
     audit's swept-vs-unswept cross-check, whose divergence tripwire
     raises Failure into this step) must reproduce the unswept baseline
     digest bit-for-bit. *)
  let _ =
    continue
    && step O_sweep (fun () ->
           match
             check_engine ~sweep:Mc.Checker.Sweep_on ~jobs:1
               ~judge:(fun _cache r -> digest_equal "--sweep on" r)
               ()
           with
           | Some m -> Some m
           | None ->
             check_engine ~sweep:Mc.Checker.Sweep_audit ~jobs:1
               ~judge:(fun _cache r -> digest_equal "--sweep audit" r)
               ())
  in
  rm_rf cache_dir;
  let verdicts =
    let ran = List.rev !verdicts in
    ran
    @ List.filter_map
        (fun o -> if List.mem_assoc o ran then None else Some (o, Skipped))
        all_oracles
  in
  let mupath_props, flow_props, pruned_static, flow_pruned_static, checker_props
      =
    match !report with
    | None -> (0, 0, 0, 0, 0)
    | Some r ->
      let pruned =
        List.fold_left
          (fun acc (t : Synthlc.Engine.transponder_report) ->
            List.fold_left
              (fun acc (_, (s : Mupath.Synth.stage_stats)) ->
                acc + s.Mupath.Synth.pruned_static)
              acc t.Synthlc.Engine.synth.Mupath.Synth.stage_stats)
          0 r.Synthlc.Engine.transponders
      in
      ( r.Synthlc.Engine.total_mupath_props,
        r.Synthlc.Engine.total_flow_props,
        pruned,
        r.Synthlc.Engine.total_flow_pruned_static,
        r.Synthlc.Engine.checker_totals.Mc.Checker.Stats.n_props )
  in
  {
    config = cfg;
    netlist_digest = !netlist_digest;
    report_digest = (match !report with None -> None | Some r -> Some (Synthlc.Engine.report_digest r));
    verdicts;
    mupath_props;
    flow_props;
    pruned_static;
    flow_pruned_static;
    checker_props;
    time_s = Unix.gettimeofday () -. t0;
  }

let fails_like ?depth ?episodes ?workdir o cfg =
  let outcome = run ?depth ?episodes ?workdir cfg in
  match failure outcome with Some (o', _) -> o' = o | None -> false
