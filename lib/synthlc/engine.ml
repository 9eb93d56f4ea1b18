(* SynthLC top level (§V): RTL2MµPATH per instruction, candidate-transponder
   detection, symbolic-IFT attribution of decisions to typed transmitters,
   and leakage-signature assembly. *)

module Meta = Designs.Meta

type transponder_report = {
  instr : Isa.t;
  synth : Mupath.Synth.result;
  tagged : Types.tagged_decision list;
  signatures : Types.signature list;
  flow_props : int;
  flow_undetermined : int;
  flow_pruned_static : int;
      (* Covers discharged by the static taint pre-pass; differs across
         prune modes (0 under audit) so excluded from report_digest. *)
  flow_pruned_absint : int;
      (* Covers discharged only by the known-bits-refined pre-pass; same
         digest-exclusion rule as flow_pruned_static. *)
  flow_time : float;
}

type report = {
  design_name : string;
  transponders : transponder_report list;
  checker_totals : Mc.Checker.Stats.t;
  total_mupath_props : int;
  total_flow_props : int;
  total_flow_pruned_static : int;
  total_flow_pruned_absint : int;
  precise : bool;
      (* IFT cell-rule precision the flow stage ran with.  Part of the
         digest: imprecise runs answer a different question. *)
  jobs : int;
  elapsed : float;
  metrics : (string * float) list;
      (* Obs.Metrics snapshot at end of run; [] when tracing is off.
         Observability only — excluded from equal_report/report_digest. *)
}

(* Secondary leakage heuristic (§VII-A1): a tagged decision whose
   destination set equals its source alone is a pure stall-in-place —
   leakage observed only through shared-resource back-pressure. *)
let is_secondary (d : Types.tagged_decision) = d.Types.dst = [ d.Types.src ]

let signatures_of_tagged (transponder : Isa.t)
    (decisions : (string * string list list) list)
    (tagged : Types.tagged_decision list) =
  let sources = List.sort_uniq compare (List.map (fun d -> d.Types.src) tagged) in
  List.filter_map
    (fun src ->
      let here = List.filter (fun d -> d.Types.src = src) tagged in
      let distinct_dsts =
        List.sort_uniq compare (List.map (fun d -> d.Types.dst) here)
      in
      (* Footnote 3: at least two operand-dependent decisions are needed for
         >1 receiver observation as a function of operand values. *)
      if List.length distinct_dsts < 2 then None
      else
        let inputs =
          List.sort_uniq compare (List.map (fun d -> d.Types.input) here)
        in
        let destinations =
          match List.assoc_opt src decisions with
          | Some ds -> ds
          | None -> distinct_dsts
        in
        Some
          {
            Types.transponder = transponder.Isa.op;
            source = src;
            inputs;
            destinations;
          })
    sources

let run ?cache ?(config = Mc.Checker.default_config) ?synth_config
    ?(precise = true) ?(prune = `On)
    ?(stimulus : Designs.Stimulus.factory option) ?(exclude_sources = []) ?(jobs = 1)
    ~(design : unit -> Meta.t) ~(instructions : Isa.t list)
    ~(transmitters : Isa.opcode list) ~(kinds : Types.transmitter_kind list)
    ~(revisit_count_labels : string list) ~iuv_pc () =
  let t0 = Obs.now_ns () in
  (* One elaboration (or import) per run.  Each task gets its own
     [Meta.copy], made here in the calling domain, so no worker domain
     ever reads the pristine design; inside a task, every consumer that
     extends the netlist (synthesis, each IFT query) takes a copy of the
     task's. *)
  let pristine = design () in
  let design_name = pristine.Meta.design_name in
  let task_designs = List.map (fun _ -> Meta.copy pristine) instructions in
  let synth_config = Option.value synth_config ~default:config in
  (* Per-task configs carry a seed derived from (base seed, task index) —
     a pure function of the input position, so any jobs count (including 1)
     produces bit-identical reports.  Each task has its own design copies
     and checkers; nothing is shared across domains. *)
  let reseed index (c : Mc.Checker.config) =
    { c with Mc.Checker.seed = Pool.derive_seed ~base:c.Mc.Checker.seed ~index }
  in
  (* Each task writes verdicts into its own staged view of the shared
     store, created up front in the calling domain; the join merges them
     in task order (the per-domain write staging of the pool design). *)
  let task_caches =
    List.map (fun _ -> Option.map Vcache.stage cache) instructions
  in
  let pairs =
    List.concat_map
      (fun kind -> List.map (fun op -> (kind, op)) [ Types.Rs1; Types.Rs2 ])
      kinds
  in
  (* Transmitter candidates rotated through the transmitter slot by the
     simulation pre-pass: two register-field shapes per opcode. *)
  let tx_candidates =
    List.concat_map
      (fun o ->
        [ Isa.make ~rd:1 ~rs1:2 ~rs2:3 o; Isa.make ~rd:3 ~rs1:1 ~rs2:2 ~imm:4 o ])
      transmitters
  in
  let analyze index instr =
    let cache = List.nth task_caches index in
    let base = List.nth task_designs index in
    let config = reseed index config in
    let pins = [ (iuv_pc, instr) ] in
    let go () =
      let t0 = Obs.now_ns () in
      (* Stage 1: µPATH synthesis on a copy of the task's design. *)
      let meta = Meta.copy base in
      let synth =
        Mupath.Synth.run ?cache ~config:(reseed index synth_config)
          ?stimulus:(Option.map (fun f -> f ~pins ~rotate:[] meta) stimulus)
          ~static_prune:(prune = `On) ~absint:prune
          ~revisit_count_labels ~meta ~iuv:instr ~iuv_pc ()
      in
      (* Candidate transponders have µPATH variability (§V-C): more than one
         µPATH, or any decision source with several destinations. *)
      let variable =
        List.length synth.Mupath.Synth.paths > 1
        || List.exists (fun (_, ds) -> List.length ds > 1) synth.Mupath.Synth.decisions
      in
      let multi_decisions =
        List.filter
          (fun (src, ds) ->
            List.length ds > 1 && not (List.mem src exclude_sources))
          synth.Mupath.Synth.decisions
      in
      if not variable || multi_decisions = [] then
        {
          instr;
          synth;
          tagged = [];
          signatures = [];
          flow_props = 0;
          flow_undetermined = 0;
          flow_pruned_static = 0;
          flow_pruned_absint = 0;
          flow_time = Obs.seconds_since t0;
        }
      else begin
        (* Stage 2: symbolic IFT per (kind, operand), each on a copy of
           the task's design; Flow binds the stimulus to its copy once it
           is instrumented. *)
        let all =
          List.map
            (fun (kind, operand) ->
              let rotate =
                [ (Flow.transmitter_pc ~iuv_pc kind, tx_candidates) ]
              in
              Flow.analyze ?cache ~config
                ?stimulus:(Option.map (fun f -> f ~pins ~rotate) stimulus)
                ~precise ~prune ~meta:(Meta.copy base) ~transponder:instr
                ~decisions:multi_decisions ~transmitters ~kind ~operand
                ~iuv_pc ())
            pairs
        in
        let tagged = List.concat_map (fun a -> a.Flow.tagged) all in
        let flow_props =
          List.fold_left (fun acc a -> acc + a.Flow.stats.Flow.q_props) 0 all
        in
        let flow_undet =
          List.fold_left (fun acc a -> acc + a.Flow.stats.Flow.q_undetermined) 0 all
        in
        let flow_pruned =
          List.fold_left (fun acc a -> acc + a.Flow.stats.Flow.q_pruned_static) 0 all
        in
        let flow_pruned_ai =
          List.fold_left (fun acc a -> acc + a.Flow.stats.Flow.q_pruned_absint) 0 all
        in
        {
          instr;
          synth;
          tagged;
          signatures = signatures_of_tagged instr synth.Mupath.Synth.decisions tagged;
          flow_props;
          flow_undetermined = flow_undet;
          flow_pruned_static = flow_pruned;
          flow_pruned_absint = flow_pruned_ai;
          flow_time = Obs.seconds_since t0;
        }
      end
    in
    if Obs.enabled () then
      (* Ambient task/seed attribution: every span recorded inside this
         task (checker, cache, synth stages) carries them. *)
      Obs.with_ctx
        [ ("task", string_of_int index); ("seed", string_of_int config.Mc.Checker.seed) ]
        (fun () ->
          Obs.with_span "engine.task" ~args:[ ("instr", Isa.to_string instr) ] go)
    else go ()
  in
  let jobs = max 1 jobs in
  let dispatch () = Pool.with_pool ~jobs (fun p -> Pool.mapi p ~f:analyze instructions) in
  let transponders =
    if Obs.enabled () then
      Obs.with_span "engine.run"
        ~args:
          [
            ("design", design_name);
            ("instructions", string_of_int (List.length instructions));
            ("jobs", string_of_int jobs);
          ]
        dispatch
    else dispatch ()
  in
  List.iter (fun c -> Option.iter Vcache.merge c) task_caches;
  let checker_totals =
    List.fold_left
      (fun acc t -> Mc.Checker.Stats.merge acc t.synth.Mupath.Synth.checker_stats)
      (Mc.Checker.Stats.create ()) transponders
  in
  let total_flow_props =
    List.fold_left (fun acc t -> acc + t.flow_props) 0 transponders
  in
  let total_flow_pruned_static =
    List.fold_left (fun acc t -> acc + t.flow_pruned_static) 0 transponders
  in
  let total_flow_pruned_absint =
    List.fold_left (fun acc t -> acc + t.flow_pruned_absint) 0 transponders
  in
  let elapsed = Obs.seconds_since t0 in
  let metrics =
    if Obs.enabled () then begin
      Obs.Metrics.gauge "engine.elapsed_s" elapsed;
      Obs.Metrics.gauge "engine.jobs" (float_of_int jobs);
      Obs.Metrics.snapshot ()
    end
    else []
  in
  {
    design_name;
    transponders;
    checker_totals;
    total_mupath_props = checker_totals.Mc.Checker.Stats.n_props;
    total_flow_props;
    total_flow_pruned_static;
    total_flow_pruned_absint;
    precise;
    jobs;
    elapsed;
    metrics;
  }

(* Semantic report equality: every synthesized fact, ignoring wall-clock
   fields and solver-time accounting.  Reports produced at different [jobs]
   values must compare equal — the determinism guarantee the pool's seed
   derivation exists to uphold. *)
let equal_stats (a : Mc.Checker.Stats.t) (b : Mc.Checker.Stats.t) =
  a.Mc.Checker.Stats.n_props = b.Mc.Checker.Stats.n_props
  && a.Mc.Checker.Stats.n_reachable = b.Mc.Checker.Stats.n_reachable
  && a.Mc.Checker.Stats.n_unreachable = b.Mc.Checker.Stats.n_unreachable
  && a.Mc.Checker.Stats.n_undetermined = b.Mc.Checker.Stats.n_undetermined
  && a.Mc.Checker.Stats.n_sim_discharged = b.Mc.Checker.Stats.n_sim_discharged
  && a.Mc.Checker.Stats.n_inductive = b.Mc.Checker.Stats.n_inductive

let equal_transponder (a : transponder_report) (b : transponder_report) =
  let sa = a.synth and sb = b.synth in
  a.instr = b.instr
  && sa.Mupath.Synth.duv_pls = sb.Mupath.Synth.duv_pls
  && sa.Mupath.Synth.pruned_duv_states = sb.Mupath.Synth.pruned_duv_states
  && sa.Mupath.Synth.iuv_pls = sb.Mupath.Synth.iuv_pls
  && sa.Mupath.Synth.implications = sb.Mupath.Synth.implications
  && sa.Mupath.Synth.exclusives = sb.Mupath.Synth.exclusives
  && sa.Mupath.Synth.naive_sets = sb.Mupath.Synth.naive_sets
  && sa.Mupath.Synth.candidate_sets = sb.Mupath.Synth.candidate_sets
  && sa.Mupath.Synth.paths = sb.Mupath.Synth.paths
  && sa.Mupath.Synth.decisions = sb.Mupath.Synth.decisions
  && sa.Mupath.Synth.revisit_counts = sb.Mupath.Synth.revisit_counts
  && sa.Mupath.Synth.stage_stats = sb.Mupath.Synth.stage_stats
  && equal_stats sa.Mupath.Synth.checker_stats sb.Mupath.Synth.checker_stats
  && a.tagged = b.tagged
  && a.signatures = b.signatures
  && a.flow_props = b.flow_props
  && a.flow_undetermined = b.flow_undetermined
  && a.flow_pruned_static = b.flow_pruned_static
  && a.flow_pruned_absint = b.flow_pruned_absint

let equal_report a b =
  a.design_name = b.design_name
  && a.precise = b.precise
  && a.total_mupath_props = b.total_mupath_props
  && a.total_flow_props = b.total_flow_props
  && List.length a.transponders = List.length b.transponders
  && List.for_all2 equal_transponder a.transponders b.transponders

(* A digest over the semantic facts of a report — everything a verification
   consumer acts on — leaving out every wall-clock, cache hit/miss, and
   property-count field: two runs that synthesized the same thing digest
   identically whether their verdicts came from the checker engines, from a
   warm cache, or (for statically-dead covers) from the reachability
   abstraction.  Stage/checker counters are deliberately excluded — they
   differ between prune modes even though the synthesized facts do not.
   Marshaled without sharing so physically different but structurally
   equal reports serialize to the same bytes. *)
let report_digest r =
  let transponder (t : transponder_report) =
    let s = t.synth in
    ( t.instr,
      s.Mupath.Synth.duv_pls,
      s.Mupath.Synth.pruned_duv_states,
      s.Mupath.Synth.iuv_pls,
      s.Mupath.Synth.implications,
      s.Mupath.Synth.exclusives,
      (s.Mupath.Synth.naive_sets, s.Mupath.Synth.candidate_sets),
      s.Mupath.Synth.paths,
      s.Mupath.Synth.decisions,
      s.Mupath.Synth.revisit_counts,
      (t.tagged, t.signatures, t.flow_props, t.flow_undetermined) )
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.design_name,
            r.precise,
            r.total_flow_props,
            List.map transponder r.transponders )
          [ Marshal.No_sharing ]))

let all_signatures r = List.concat_map (fun t -> t.signatures) r.transponders

let all_transmitter_opcodes r =
  List.sort_uniq compare
    (List.concat_map
       (fun t ->
         List.map (fun (i : Types.explicit_input) -> i.Types.transmitter)
           (List.concat_map (fun (s : Types.signature) -> s.Types.inputs) t.signatures))
       r.transponders)

let pp_report fmt r =
  Format.fprintf fmt "@[<v>== SynthLC report for %s ==@," r.design_name;
  List.iter
    (fun t ->
      Format.fprintf fmt "@,-- transponder %s: %d uPATHs, %d signatures (%.1fs)@,"
        (Isa.to_string t.instr)
        (List.length t.synth.Mupath.Synth.paths)
        (List.length t.signatures) t.flow_time;
      List.iter (fun s -> Format.fprintf fmt "%a@," Types.pp_signature s) t.signatures)
    r.transponders;
  Format.fprintf fmt "@,total properties: %d (uPATH) + %d (IFT, %d pruned \
                      statically, %d known-bits), %.1fs (jobs=%d)@,"
    r.total_mupath_props r.total_flow_props r.total_flow_pruned_static
    r.total_flow_pruned_absint r.elapsed r.jobs;
  Format.fprintf fmt "checker totals: %a@]" Mc.Checker.Stats.pp r.checker_totals
