(* The repository's benchmark (see BENCHMARK.json and METRICS.md).

     perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Every timed sample runs in a fresh child process of this executable, so
   each starts from an empty heap and its peak resident memory belongs to
   that sample alone; the warm workload's store is filled by another
   child for the same reason.  Children report one JSON line each.  The
   parent prints a context line, then the result as the last line of
   standard output, and exits non-zero when any gate failed. *)

module J = Frontend.Json

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let role = ref ""
let store = ref ""
let self_test_only = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N selects a pinned checker seed (default 1)");
    ("--seconds", Arg.Set_int seconds, "S time budget of the run (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer metrics (1)");
    ("--child", Arg.Set_string role, "ROLE internal: run one sample (timed or traced)");
    ("--store", Arg.Set_string store, "DIR internal: verdict store of a child");
    ("--self-test", Arg.Set self_test_only, " check the benchmark's own arithmetic");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* --- small helpers -------------------------------------------------------- *)

let seconds_since = Layers.seconds_since

(* Peak resident set of this process so far, in MB (Linux [VmHWM]). *)
let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> die "no VmHWM in /proc/self/status"
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
          | Some _ -> scan ()
        in
        scan ())
  in
  float_of_int kb /. 1024.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let floats l = J.List (List.map (fun x -> J.Float x) l)
let strings l = J.List (List.map (fun s -> J.String s) l)

let member_exn k j =
  match J.member k j with Some v -> v | None -> die "child result lacks %S" k

let to_float = function
  | J.Float f -> f
  | J.Int n -> float_of_int n
  | _ -> die "expected a number"

let float_member k j = to_float (member_exn k j)

let float_list k j =
  List.map to_float (Option.value (J.to_list (member_exn k j)) ~default:[])

let string_list k j =
  List.filter_map J.to_str (Option.value (J.to_list (member_exn k j)) ~default:[])

(* Fixed work — 2^23 dependent updates scattered over 16 MB — timed as a
   diagnostic of how fast the host ran; never a metric. *)
let host_probe () =
  let a = Array.make (1 lsl 21) 0 in
  let x = ref 12345 in
  let t0 = Obs.now_ns () in
  for _ = 1 to 1 lsl 23 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lxor a.(!x land 0xFFFF)) land (Array.length a - 1) in
    a.(i) <- a.(i) + 1
  done;
  seconds_since t0

(* The commit when run inside a git work tree, else "none"; the digest of
   the library sources identifies the measured code either way. *)
let commit () =
  let read p = String.trim (In_channel.with_open_bin p In_channel.input_all) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    try read (Filename.concat ".git" r) with Sys_error _ -> head)
  | head -> head

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun p -> p ^ Digest.to_hex (Digest.file p))
             (files "lib" @ files "examples"))))

(* --- children ------------------------------------------------------------- *)

(* Admission with µLint is the set-up every sample pays.  A sample admits
   once before its timed section, as the CLI does, and repeats admission
   after it (where it cannot touch the measured peak memory) until
   [setup_budget] seconds have gone into set-up, so a run has several
   set-up times to take the median of. *)
let setup_budget = 0.5

let more_setups w ~spent =
  let rec go acc spent =
    if acc <> [] && spent >= setup_budget then List.rev acc
    else
      let _, s = Layers.timed (fun () -> Workload.admit w) in
      go (s :: acc) (spent +. s)
  in
  go [] spent

let open_store w =
  match w with Workload.Gl -> None | Cold | Warm -> Some (Vcache.create ~dir:!store ())

let pin () = Workload.pin_of_seed !seed
let checker_seed () = (pin ()).Workload.checker_seed

(* A sample's gate against its pinned digest, plus proof that the gate
   rejects a wrong pin at all. *)
let gate_failures w outcome =
  let pin = Workload.pinned w (pin ()) in
  let wrong = String.map (fun c -> if c = '0' then '1' else '0') pin in
  Workload.gate w ~pin outcome
  @
  if Workload.gate w ~pin:wrong outcome <> [] then []
  else [ "gate accepted a wrong pin" ]

(* One untraced sample: set-up, then the timed section from the synthesis
   call to a verified digest. *)
let child_timed w =
  let admitted, first_setup = Layers.timed (fun () -> Workload.admit w) in
  let rss_setup = peak_rss_mb () in
  let cache = open_store w in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let cpu0 = cpu () in
  let (outcome, failures), wall =
    Layers.timed (fun () ->
        let o = Workload.run w ~seed:(checker_seed ()) ~admitted ~store:cache in
        (o, gate_failures w o))
  in
  let cpu_s = cpu () -. cpu0 in
  let peak = peak_rss_mb () in
  J.Assoc
    [
      ("setup_s", floats (first_setup :: more_setups w ~spent:first_setup));
      ("wall_s", J.Float wall);
      ("cpu_s", J.Float cpu_s);
      ("rss_setup_mb", J.Float rss_setup);
      ("peak_rss_mb", J.Float peak);
      ("calls", J.Int outcome.Workload.calls);
      ("undetermined", J.Int outcome.Workload.undetermined);
      ("failures", strings failures);
    ]

(* One traced sample, then the outside-in probes. *)
let child_traced w =
  let admitted = Workload.admit w in
  let cache = open_store w in
  Obs.enable ();
  Obs.reset ();
  let outcome =
    Obs.with_span "bench.timed" (fun () ->
        Workload.run w ~seed:(checker_seed ()) ~admitted ~store:cache)
  in
  Obs.disable ();
  let events = Obs.events () in
  let wall =
    List.fold_left
      (fun acc (e : Obs.event) ->
        if e.Obs.ev_name = "bench.timed" then float_of_int e.Obs.ev_dur_ns *. 1e-9
        else acc)
      0. events
  in
  let traced =
    Layers.of_trace ~wall ~events ~dropped:(Obs.dropped_events ())
      ~snapshot:(Obs.Metrics.snapshot ()) ~outcome
  in
  let frontend = Layers.probe_frontend w in
  let equiv, equiv_failures =
    match w with
    | Workload.Gl ->
      let reduce_s, merged = Layers.probe_equiv ~seed:(checker_seed ()) in
      let checker_merged = List.assoc "equiv.merged" traced in
      ( [ ("equiv.reduce_s", reduce_s) ],
        if float_of_int merged = checker_merged then []
        else
          [
            Printf.sprintf "equiv probe merged %d nodes, the checker %.0f" merged
              checker_merged;
          ] )
    | Cold | Warm -> ([ ("equiv.reduce_s", 0.) ], [])
  in
  let cache_metrics, cache_failures =
    match cache with
    | None ->
      ([ ("cache.bytes", 0.); ("cache.read_s", 0.); ("cache.write_s", 0.) ], [])
    | Some _ ->
      let dir = !store in
      let bytes =
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Vcache.disk_entries ~dir)
      in
      let scratch = dir ^ ".probe" in
      let read_s, write_s, failures =
        Fun.protect
          ~finally:(fun () -> rm_rf scratch)
          (fun () -> Layers.probe_cache ~dir ~scratch)
      in
      ( [
          ("cache.bytes", float_of_int bytes);
          ("cache.read_s", read_s);
          ("cache.write_s", write_s);
        ],
        failures )
  in
  let dropped =
    if List.assoc "obs.dropped_events" traced = 0. then [] else [ "trace dropped events" ]
  in
  J.Assoc
    [
      ("wall_s", J.Float wall);
      ( "metrics",
        J.Assoc
          (List.map
             (fun (k, v) -> (k, J.Float v))
             (traced @ frontend @ equiv @ cache_metrics)) );
      ( "failures",
        strings (gate_failures w outcome @ equiv_failures @ cache_failures @ dropped) );
      ("calls", J.Int outcome.Workload.calls);
      ("undetermined", J.Int outcome.Workload.undetermined);
    ]

(* --- the parent ----------------------------------------------------------- *)

(* Beyond [Arith.self_test]: a digest mismatch injected into an otherwise
   passing outcome must fail the gate and count as a wholly failed run, and
   every integer seed must land on a pinned checker seed. *)
let self_test () =
  let w = Workload.Cold in
  let good =
    {
      Workload.digest = Workload.pinned w (pin ());
      calls = 101;
      undetermined = 0;
      cache = Workload.expected_cache w;
      synth_props = 91;
      flow_props = 20;
    }
  in
  let bad = { good with Workload.digest = String.make 32 '0' } in
  let ratio o =
    Arith.fail_ratio ~passed:(gate_failures w o = []) ~undetermined:0 ~calls:101
  in
  let seeds_ok =
    List.for_all
      (fun (n, c) -> (Workload.pin_of_seed n).Workload.checker_seed = c)
      [ (1, 1); (4, 14); (5, 1); (0, 14); (-1, 3) ]
  in
  Arith.self_test ()
  @ (if ratio good = 0. && ratio bad = 1. then []
     else [ "fail_ratio on an injected mismatch" ])
  @ if seeds_ok then [] else [ "seed to checker-seed mapping" ]

(* Children see neither the CLI's job/cache defaults nor GC overrides. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun p -> String.starts_with ~prefix:p kv)
              [ "SYNTHLC_"; "CHECKER_DEBUG="; "OCAMLRUNPARAM=" ]))
  |> Array.of_list

(* A child's report ([None] when it did not finish cleanly) and its gate
   failures. *)
type sample = {
  role : string;
  at : float;
  took : float;
  report : J.t option;
  failures : string list;
}

let running = ref None

(* Runs one child to completion and parses the last line it printed. *)
let spawn ~t0 ~role w ~dir =
  let args =
    [|
      Sys.executable_name; "--child"; role; "--workload"; Workload.name w;
      "--seed"; string_of_int !seed; "--store"; dir;
    |]
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let at = seconds_since t0 in
  let pid =
    Unix.create_process_env Sys.executable_name args (child_env ()) Unix.stdin wr
      Unix.stderr
  in
  running := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  running := None;
  let took = seconds_since t0 -. at in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (String.split_on_char '\n' out)
  in
  match (status, last) with
  | Unix.WEXITED 0, Some l ->
    let report = J.parse_string l in
    { role; at; took; report = Some report; failures = string_list "failures" report }
  | _ ->
    let why = Printf.sprintf "%s %s child did not finish cleanly" (Workload.name w) role in
    { role; at; took; report = None; failures = [ why ] }

let num k s = Option.map (float_member k) s.report

let median_or_zero = function [] -> 0. | l -> Arith.median l

let fail_ratio_of s =
  match s.report with
  | None -> 1.
  | Some j ->
    let int k = Option.value (J.to_int (member_exn k j)) ~default:0 in
    Arith.fail_ratio ~passed:(s.failures = []) ~undetermined:(int "undetermined")
      ~calls:(int "calls")

let metric v unit = J.Assoc [ ("value", J.Float v); ("unit", J.String unit) ]

(* End-to-end metrics from untraced samples that fill the time budget. *)
let end_to_end ~fill ~t0 ~next =
  let deadline = float_of_int !seconds in
  (* Another sample starts only if it should end within the budget, judged
     by the slowest sample so far. *)
  let rec go acc slowest =
    let s = next () in
    let slowest = Float.max slowest s.took in
    if seconds_since t0 +. slowest > deadline then List.rev (s :: acc)
    else go (s :: acc) slowest
  in
  let reps = go [] 0. in
  let values k = List.filter_map (num k) reps in
  let setup =
    List.concat_map
      (fun s -> Option.fold ~none:[] ~some:(float_list "setup_s") s.report)
      reps
  in
  let fill_s, fill_failures =
    match fill with
    | Some f -> (Option.value (num "wall_s" f) ~default:0., f.failures)
    | None -> (0., [])
  in
  let fail =
    List.fold_left (fun acc s -> Float.max acc (fail_ratio_of s)) 0. reps
  in
  let fail = if fill_failures = [] then fail else 1. in
  let metrics =
    [
      ("wall_s", metric (median_or_zero (values "wall_s")) "s");
      ("setup_s", metric (median_or_zero setup +. fill_s) "s");
      ("peak_rss_mb", metric (median_or_zero (values "peak_rss_mb")) "MB");
      ("decided_ratio", metric (1. -. fail) "ratio");
    ]
  in
  let context =
    [
      ("fail_ratio", J.Float fail);
      ("fill_s", J.Float fill_s);
      ("samples", J.List (List.filter_map (fun s -> s.report) reps));
    ]
  in
  (reps, metrics, context)

(* Per-layer metrics from one traced sample; the untraced sample before it
   gives the tracing overhead. *)
let per_layer ~next ~traced =
  let untraced = next () in
  let traced = traced () in
  let layer =
    match (traced.report, num "wall_s" untraced, num "wall_s" traced) with
    | Some j, Some wall_u, Some wall_t ->
      List.map
        (fun (k, v) -> (k, to_float v))
        (Option.value (J.to_assoc (member_exn "metrics" j)) ~default:[])
      @ [ ("obs.trace_overhead", (wall_t /. wall_u) -. 1.) ]
    | _ -> []
  in
  ( [ untraced; traced ],
    List.map (fun (k, v) -> (k, metric v (Layers.unit_of k))) (List.sort compare layer),
    [] )

let run_parent w =
  (match self_test () with
  | [] -> ()
  | broken -> die "self-test failed: %s" (String.concat "; " broken));
  let t0 = Obs.now_ns () in
  let probe_before = host_probe () in
  (* Fixed-length names: the store path is allocated inside the timed
     section, and its length alone can shift the collector's pacing. *)
  let root = Filename.concat "_perfbench" (Printf.sprintf "run-%07d" (Unix.getpid ())) in
  rm_rf root;
  (* An interrupted run still stops its child and removes its stores. *)
  let on_signal _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      !running;
    rm_rf root;
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  let order = ref [] in
  let run_child ~role w dir =
    let s = spawn ~t0 ~role w ~dir in
    order := s :: !order;
    s
  in
  let stores = ref 0 in
  let fresh_dir () =
    incr stores;
    Filename.concat root (Printf.sprintf "store%02d" !stores)
  in
  let body () =
    (* The warm store is filled by a cold run in a child of its own, so the
       fill's heap never counts toward a sample's peak memory.  Every other
       sample gets a fresh store. *)
    let fill, dir_for =
      match w with
      | Workload.Warm ->
        let dir = fresh_dir () in
        (Some (run_child ~role:"timed" Workload.Cold dir), fun () -> dir)
      | Cold | Gl -> (None, fresh_dir)
    in
    let next () = run_child ~role:"timed" w (dir_for ()) in
    let samples, metrics, context =
      if !trace = 1 then
        per_layer ~next ~traced:(fun () -> run_child ~role:"traced" w (dir_for ()))
      else end_to_end ~fill ~t0 ~next
    in
    let failures =
      List.concat_map (fun s -> s.failures) (Option.to_list fill @ samples)
    in
    let failed = List.length (List.filter (fun s -> s.failures <> []) samples) in
    (failures, List.length samples, failed, metrics, context)
  in
  let failures, attempted, failed, metrics, context =
    Fun.protect
      ~finally:(fun () ->
        rm_rf root;
        try Unix.rmdir "_perfbench" with Unix.Unix_error _ -> ())
      body
  in
  let order =
    List.rev_map
      (fun s ->
        J.Assoc
          [ ("role", J.String s.role); ("at_s", J.Float s.at); ("took_s", J.Float s.took) ])
      !order
  in
  print_endline
    (J.to_string ~compact:true
       (J.Assoc
          ([
             ("workload", J.String (Workload.name w));
             ("seed", J.Int !seed);
             ("checker_seed", J.Int (checker_seed ()));
             ("trace", J.Int !trace);
             ("nproc", J.Int (Domain.recommended_domain_count ()));
             ("ocaml", J.String Sys.ocaml_version);
             ("commit", J.String (commit ()));
             ("source_digest", J.String (source_digest ()));
             ("host_probe_s", floats [ probe_before; host_probe () ]);
             ("order", J.List order);
             ("failures", strings failures);
           ]
          @ context)));
  let correct = failures = [] in
  print_endline
    (J.to_string ~compact:true
       (J.Assoc
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Assoc metrics);
          ]));
  if not correct then exit 1

let () =
  Arg.parse spec
    (fun a -> die "unexpected argument %S" a)
    "perfbench --workload NAME [options]";
  if !self_test_only then
    match self_test () with
    | [] -> print_endline "self-test passed"
    | broken -> die "self-test failed: %s" (String.concat "; " broken)
  else
    let w =
      match Workload.of_name !workload with
      | Some w -> w
      | None ->
        die "unknown workload %S (expected: %s)" !workload
          (String.concat ", " (List.map Workload.name Workload.all))
    in
    match !role with
    | "" ->
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      run_parent w
    | "timed" -> print_endline (J.to_string ~compact:true (child_timed w))
    | "traced" -> print_endline (J.to_string ~compact:true (child_traced w))
    | r -> die "unknown child role %S" r
