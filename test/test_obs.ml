(* Observability-layer tests: span recording and nesting, ring-buffer
   overflow accounting, ambient-context attribution, the metrics registry,
   Chrome trace-event / metrics JSON export well-formedness, pool
   integration (nested submission under tracing, derive_seed golden
   stability).  The digest-exclusion rule end to end (engine reports
   bit-identical with tracing on vs. off) is checked by [pins]' "engine
   workload cold, warm and audited", whose cold run is traced and whose
   -j 4 run is not. *)

(* Every test starts from a known-clean, enabled layer and leaves the
   layer disabled for whoever runs next (other suites assume the
   zero-cost path). *)
let with_obs ?capacity f =
  Obs.reset ();
  Obs.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* Minimal JSON well-formedness check: balanced {}/[] outside strings,
   legal escapes, no trailing garbage.  Enough to catch the classic
   emitter bugs (unescaped quotes, trailing commas are NOT caught — see
   the structural checks alongside). *)
let json_balanced s =
  let n = String.length s in
  let rec go i depth in_str =
    if i >= n then depth = 0 && not in_str
    else
      let c = s.[i] in
      if in_str then
        if c = '\\' then go (i + 2) depth true
        else go (i + 1) depth (c <> '"')
      else
        match c with
        | '"' -> go (i + 1) depth true
        | '{' | '[' -> go (i + 1) (depth + 1) false
        | '}' | ']' -> depth > 0 && go (i + 1) (depth - 1) false
        | _ -> go (i + 1) depth false
  in
  go 0 0 false

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_spans_and_nesting () =
  with_obs (fun () ->
      let r =
        Obs.with_span "outer"
          ~args:[ ("k", "v") ]
          (fun () ->
            Obs.with_span "inner" (fun () -> ());
            17)
      in
      Alcotest.(check int) "with_span is transparent" 17 r;
      (match Obs.events () with
      | [ inner; outer ] ->
        (* Spans record on completion: inner closes first. *)
        Alcotest.(check string) "inner first" "inner" inner.Obs.ev_name;
        Alcotest.(check string) "outer second" "outer" outer.Obs.ev_name;
        Alcotest.(check bool) "outer contains inner (start)" true
          (outer.Obs.ev_ts_ns <= inner.Obs.ev_ts_ns);
        Alcotest.(check bool) "outer contains inner (end)" true
          (inner.Obs.ev_ts_ns + inner.Obs.ev_dur_ns
          <= outer.Obs.ev_ts_ns + outer.Obs.ev_dur_ns);
        Alcotest.(check (list (pair string string)))
          "explicit args kept"
          [ ("k", "v") ]
          outer.Obs.ev_args
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
      (* A raising body still records its span. *)
      (try Obs.with_span "raises" (fun () -> raise Exit) with Exit -> ());
      Alcotest.(check int) "span recorded on raise" 3
        (List.length (Obs.events ())))

let test_disabled_is_inert () =
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check int) "with_span still runs f" 5
    (Obs.with_span "x" (fun () -> 5));
  Obs.instant "nothing";
  Obs.Metrics.incr "nothing";
  Obs.Metrics.observe "nothing" 1.0;
  Alcotest.(check int) "no events" 0 (List.length (Obs.events ()));
  Alcotest.(check (list (pair string (float 0.)))) "no metrics" []
    (Obs.Metrics.snapshot ())

let test_ring_overflow () =
  with_obs ~capacity:4 (fun () ->
      for i = 1 to 10 do
        Obs.instant (Printf.sprintf "e%d" i)
      done;
      let names = List.map (fun e -> e.Obs.ev_name) (Obs.events ()) in
      Alcotest.(check (list string)) "newest 4 kept, oldest first"
        [ "e7"; "e8"; "e9"; "e10" ] names;
      Alcotest.(check int) "evictions counted" 6 (Obs.dropped_events ());
      Obs.reset ();
      Alcotest.(check int) "reset clears dropped" 0 (Obs.dropped_events ()))

let test_with_ctx_attribution () =
  with_obs (fun () ->
      Obs.with_ctx
        [ ("task", "3") ]
        (fun () ->
          Obs.with_ctx
            [ ("seed", "99") ]
            (fun () -> Obs.with_span "work" ~args:[ ("own", "arg") ] ignore);
          Obs.instant "after-inner-ctx");
      Obs.instant "outside";
      match Obs.events () with
      | [ work; after; outside ] ->
        Alcotest.(check (list (pair string string)))
          "span sees own args + full ambient stack"
          [ ("own", "arg"); ("task", "3"); ("seed", "99") ]
          work.Obs.ev_args;
        Alcotest.(check (list (pair string string)))
          "inner ctx popped on exit"
          [ ("task", "3") ]
          after.Obs.ev_args;
        Alcotest.(check (list (pair string string)))
          "ctx is scoped" [] outside.Obs.ev_args
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_metrics_registry () =
  with_obs (fun () ->
      Obs.Metrics.incr "c";
      Obs.Metrics.incr "c" ~by:4;
      Obs.Metrics.incr "c" ~labels:[ ("k", "v") ];
      Obs.Metrics.gauge "g" 2.5;
      Obs.Metrics.gauge "g" 7.5;
      List.iter (Obs.Metrics.observe "h") [ 1.0; 3.0; 8.0 ];
      let get name =
        match Obs.Metrics.get name with
        | Some v -> v
        | None -> Alcotest.failf "missing series %s" name
      in
      Alcotest.(check (float 0.)) "counter sums" 5.0 (get "c");
      Alcotest.(check (float 0.)) "labeled series is separate" 1.0
        (get "c{k=v}");
      Alcotest.(check (float 0.)) "gauge keeps latest" 7.5 (get "g");
      Alcotest.(check (float 0.)) "hist count" 3.0 (get "h.count");
      Alcotest.(check (float 1e-9)) "hist sum" 12.0 (get "h.sum");
      Alcotest.(check (float 1e-9)) "hist mean" 4.0 (get "h.mean");
      Alcotest.(check (float 0.)) "hist min" 1.0 (get "h.min");
      Alcotest.(check (float 0.)) "hist max" 8.0 (get "h.max");
      Alcotest.(check (option (float 0.))) "absent series" None
        (Obs.Metrics.get "nope");
      let names = List.map fst (Obs.Metrics.snapshot ()) in
      Alcotest.(check (list string)) "snapshot sorted by name"
        (List.sort compare names) names)

let test_chrome_trace_export () =
  with_obs (fun () ->
      Obs.with_span "a" ~args:[ ("quote", "say \"hi\"\n") ] ignore;
      Obs.instant "b";
      let json = Obs.chrome_trace () in
      Alcotest.(check bool) "balanced JSON" true (json_balanced json);
      Alcotest.(check bool) "traceEvents array" true
        (contains ~sub:"\"traceEvents\":[" json);
      Alcotest.(check bool) "complete events" true
        (contains ~sub:"\"ph\":\"X\"" json);
      Alcotest.(check bool) "process metadata" true
        (contains ~sub:"\"process_name\"" json);
      Alcotest.(check bool) "escapes quotes" true
        (contains ~sub:{|say \"hi\"\n|} json);
      Alcotest.(check bool) "dropped counter" true
        (contains ~sub:"\"droppedEvents\":0" json);
      let mjson = Obs.metrics_json () in
      Obs.Metrics.incr "m";
      Alcotest.(check bool) "metrics JSON balanced" true
        (json_balanced (Obs.metrics_json ()));
      Alcotest.(check bool) "empty metrics is an object" true
        (json_balanced mjson && contains ~sub:"{" mjson);
      (* File writers round-trip the same bytes. *)
      let dir = Filename.temp_file "obs_test" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let tf = Filename.concat dir "trace.json" in
      let mf = Filename.concat dir "metrics.json" in
      Obs.write_chrome_trace tf;
      Obs.write_metrics_json mf;
      let slurp p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check string) "trace file" (Obs.chrome_trace ()) (slurp tf);
      Alcotest.(check string) "metrics file" (Obs.metrics_json ()) (slurp mf);
      Sys.remove tf;
      Sys.remove mf;
      Unix.rmdir dir)

(* Golden values pin the mixing function: any change to derive_seed
   silently reshuffles every per-task RNG stream and invalidates cached
   verdict stores, so it must not drift. *)
let test_derive_seed_golden () =
  List.iter
    (fun (base, index, want) ->
      Alcotest.(check int)
        (Printf.sprintf "derive_seed ~base:%d ~index:%d" base index)
        want
        (Pool.derive_seed ~base ~index))
    [
      (0, 0, 1194795085308901794);
      (0, 1, 2978448977677597310);
      (1, 0, 4533199225361417592);
      (1, 1, 2389590166322836292);
      (42, 7, 2874826156451655977);
    ]

let test_pool_nested_under_obs () =
  with_obs (fun () ->
      let ys =
        Pool.with_pool ~jobs:4 (fun p ->
            Pool.map p
              ~f:(fun x ->
                let inner = Pool.map p ~f:(fun y -> x + y) [ 1; 2; 3 ] in
                List.fold_left ( + ) 0 inner)
              [ 10; 20; 30; 40; 50 ])
      in
      Alcotest.(check (list int)) "nested sums under tracing"
        [ 36; 66; 96; 126; 156 ] ys;
      (* Only the outer batch goes through the queue (inner maps run
         inline), so the task counter sees exactly the outer tasks. *)
      Alcotest.(check (option (float 0.))) "pool.tasks counts outer batch"
        (Some 5.0)
        (Obs.Metrics.get "pool.tasks");
      match Obs.Metrics.get "pool.task_run_s.count" with
      | Some c -> Alcotest.(check (float 0.)) "run histogram matches" 5.0 c
      | None -> Alcotest.fail "missing pool.task_run_s histogram")

let suite =
  ( "obs",
    [
      Alcotest.test_case "spans and nesting" `Quick test_spans_and_nesting;
      Alcotest.test_case "disabled layer is inert" `Quick test_disabled_is_inert;
      Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
      Alcotest.test_case "with_ctx attribution" `Quick test_with_ctx_attribution;
      Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
      Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_export;
      Alcotest.test_case "derive_seed golden" `Quick test_derive_seed_golden;
      Alcotest.test_case "nested pool under obs" `Quick test_pool_nested_under_obs;
    ] )
