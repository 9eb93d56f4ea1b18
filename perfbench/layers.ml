(* Per-layer metrics of one traced run: self times from the spans [Obs]
   recorded inside the timed section, counters from its metric registry,
   and outside-in probes that time single layers after the timed section
   has ended.  Layers are named after the [lib/] modules. *)

let seconds_since t0 = float_of_int (Obs.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Median time of [n] calls. *)
let median_time n f =
  Arith.median (List.init n (fun _ -> snd (timed f)))

(* Probe repetitions: enough for a median, few enough that the gate-level
   admission probes stay under ten seconds. *)
let probe_reps = 3

(* --- outside-in probes ---------------------------------------------------- *)

(* Frontend import with and without µLint; the difference is what the
   mandatory lint pass adds to admission. *)
let probe_frontend w =
  let import_s = median_time probe_reps (fun () -> Workload.admit ~lint:false w) in
  let linted_s = median_time probe_reps (fun () -> Workload.admit w) in
  let meta = (Workload.admit ~lint:false w).Frontend.Admission.meta in
  let nodes = Hdl.Netlist.num_nodes meta.Designs.Meta.nl in
  [
    ("frontend.import_s", import_s);
    ("lint.admission_s", linted_s -. import_s);
    ("frontend.nodes", float_of_int nodes);
  ]

(* The sweep the checker runs, redone on the same monitored netlist:
   [Mupath.Harness.create] extends the design exactly as [Mupath.Synth.run]
   does before the checker sweeps it, with the metadata signals as
   barriers.  Returns the reduction time and its merge count. *)
let probe_equiv ~seed =
  let a = Workload.admit ~lint:false Workload.Gl in
  let meta = a.Frontend.Admission.meta in
  let config =
    { (Workload.mupath_config seed) with Mc.Checker.sweep = Mc.Checker.Sweep_off }
  in
  let h =
    Mupath.Harness.create ~config ~meta ~iuv:Workload.mupath_iuv
      ~iuv_pc:a.Frontend.Admission.iuv_pc ()
  in
  let nl = (Mupath.Harness.meta h).Designs.Meta.nl in
  let (_, _, st), reduce_s =
    timed (fun () -> Hdl.Equiv.reduce ~barriers:(Designs.Meta.signals meta) nl)
  in
  (reduce_s, st.Hdl.Equiv.merged)

(* Entry files are named after their (hex digest) keys. *)
let store_keys dir =
  List.filter_map
    (fun (f, _) -> Filename.chop_suffix_opt ~suffix:".vc" f)
    (Vcache.disk_entries ~dir)

(* Reads every entry of a filled store through a fresh [Vcache.create],
   then writes the same entries into empty directories.  Returns
   [(read_s, write_s, failures)]. *)
let probe_cache ~dir ~scratch =
  let keys = store_keys dir in
  let read () =
    let store = Vcache.create ~dir () in
    List.map (fun k -> (k, Vcache.find store k)) keys
  in
  let found = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) (read ()) in
  let read_s = median_time probe_reps read in
  let writes = ref [] in
  let write i =
    let d = Filename.concat scratch (Printf.sprintf "write%d" i) in
    let store = Vcache.create ~dir:d () in
    let (), s = timed (fun () -> List.iter (fun (k, v) -> Vcache.add store k v) found) in
    let _, _, stores = Vcache.counters store in
    writes := stores :: !writes;
    s
  in
  let write_s = Arith.median (List.init probe_reps write) in
  let n = List.length keys in
  let failures =
    (if List.length found = n then []
     else [ Printf.sprintf "cache probe found %d of %d entries" (List.length found) n ])
    @
    if List.for_all (( = ) n) !writes then []
    else [ "cache probe wrote a short store" ]
  in
  (read_s, write_s, failures)

(* --- the traced run ------------------------------------------------------- *)

(* Span names grouped into the layer whose self time they carry.  Spans
   not listed here (and the benchmark's own [bench.timed]) fall into
   [unattributed_s]. *)
let partition =
  [
    ("frontend.reimport_s", [ "bench.reimport" ]);
    ( "prepass_s",
      [
        "synth.static_reach";
        "synth.absint";
        "synth.absint_reach";
        "flow.static_taint";
        "flow.absint_taint";
      ] );
    ("sim.prepass_s", [ "checker.sim_prepass" ]);
    ("sim.presim_s", [ "synth.presim" ]);
    ("mc.check_self_s", [ "checker.check_cover" ]);
    ("flow.self_s", [ "flow.analyze" ]);
    ("synth.self_s", [ "synth.run"; "synth.batch" ]);
    ("engine.self_s", [ "engine.run"; "engine.task" ]);
  ]

let spans_of_events evs =
  List.map
    (fun (e : Obs.event) ->
      {
        Arith.name = e.Obs.ev_name;
        ts = e.Obs.ev_ts_ns;
        dur = e.Obs.ev_dur_ns;
        tid = e.Obs.ev_tid;
      })
    evs

let ratio a b = if b = 0. then 0. else a /. b

let unit_of metric =
  if String.ends_with ~suffix:"_s" metric then "s"
  else if String.ends_with ~suffix:"ratio" metric || metric = "obs.trace_overhead"
  then "ratio"
  else if metric = "cache.bytes" then "bytes"
  else "count"

(* Everything the traced run reports, given its spans, its metric snapshot
   and its outcome.  [wall] is the traced timed section; the self times
   of [partition] plus [unattributed_s] add up to it. *)
let of_trace ~wall ~events ~dropped ~snapshot ~(outcome : Workload.outcome) =
  let spans = spans_of_events events in
  let selfs = Arith.self_times spans in
  let self n = Option.value (List.assoc_opt n selfs) ~default:0. in
  let durations n =
    List.filter_map
      (fun (s : Arith.span) ->
        if s.Arith.name = n then Some (float_of_int s.Arith.dur *. 1e-9) else None)
      spans
  in
  let total n = List.fold_left ( +. ) 0. (durations n) in
  let counter n = Option.value (List.assoc_opt n snapshot) ~default:0. in
  let parts =
    List.map
      (fun (metric, names) ->
        (metric, List.fold_left (fun acc n -> acc +. self n) 0. names))
      partition
  in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. parts in
  let covers = durations "checker.check_cover" in
  let pct p = Option.value (Arith.percentile p covers) ~default:0. in
  let props = counter "checker.props" in
  let pruned =
    counter "synth.pruned_static" +. counter "synth.pruned_absint"
    +. counter "flow.pruned_static" +. counter "flow.pruned_absint"
  in
  let hits, misses, stores =
    Option.value outcome.Workload.cache ~default:(0, 0, 0)
  in
  let outcome_count tag = counter (Printf.sprintf "checker.outcome{tag=%s}" tag) in
  parts
  @ [
      ("unattributed_s", wall -. attributed);
      ("prune.covers", pruned);
      ("prune.ratio", ratio pruned (pruned +. props));
      ( "sim.prepass_useful_ratio",
        ratio (counter "checker.sim_discharged")
          (float_of_int (List.length (durations "checker.sim_prepass"))) );
      ("mc.check_s", total "checker.check_cover");
      ("mc.cover_samples", float_of_int (List.length covers));
      ("mc.cover_p50_s", pct 0.5);
      ("mc.cover_p90_s", pct 0.9);
      ("mc.props", props);
      ("mc.reachable", outcome_count "reachable");
      ("mc.inductive", outcome_count "unreachable(inductive)");
      ("mc.bounded", outcome_count "unreachable(bounded)");
      ("mc.undetermined", outcome_count "undetermined");
      ("sat.conflicts", counter "sat.conflicts.sum");
      ("sat.propagations", counter "sat.propagations.sum");
      ("sat.vars", counter "sat.vars");
      ("sat.ind_vars", counter "sat.ind_vars");
      ("sat.learnt_peak", counter "sat.learnt_peak");
      ("sat.cse_hit_ratio", ratio (counter "sat.cse_hits") (counter "sat.cse_lookups"));
      ("equiv.merged", counter "equiv.merged");
      ("equiv.comb_nodes", counter "equiv.comb_nodes");
      ("equiv.sat_queries", counter "equiv.sat_queries");
      ("flow.analyze_s", total "flow.analyze");
      ("flow.props", float_of_int outcome.Workload.flow_props);
      ("synth.props", float_of_int outcome.Workload.synth_props);
      ("cache.hits", float_of_int hits);
      ("cache.misses", float_of_int misses);
      ("cache.stores", float_of_int stores);
      ("obs.events", float_of_int (List.length events));
      ("obs.dropped_events", float_of_int dropped);
    ]
