(* Persistent verdict cache: disk round trips across simulated process
   restarts, first-write-wins immutability, staged-view merging, corruption
   tolerance (any malformed entry file reads as a miss), digest stability
   of the cache key's netlist component, a filled store missing for a
   structurally different design with the same signal names, and
   concurrent writers.  The warm engine run's bit-identity lives in the
   [parallel] suite. *)

let temp_dir () =
  let f = Filename.temp_file "vcache" ".d" in
  Sys.remove f;
  f

let test_roundtrip_restart () =
  let dir = temp_dir () in
  let c = Vcache.create ~dir () in
  Alcotest.(check (option string)) "miss before add" None (Vcache.find c "k1");
  Vcache.add c "k1" "payload-one";
  Vcache.add c "k1" "a-later-write-must-lose";
  Alcotest.(check (option string)) "first write wins" (Some "payload-one")
    (Vcache.find c "k1");
  let binary = "line1\nline2\000\255binary tail" in
  Vcache.add c "k2" binary;
  (* A fresh store over the same directory simulates a process restart. *)
  let c2 = Vcache.create ~dir () in
  Alcotest.(check (option string)) "persisted across restart"
    (Some "payload-one") (Vcache.find c2 "k1");
  Alcotest.(check (option string)) "binary blob intact" (Some binary)
    (Vcache.find c2 "k2");
  let hits, misses, stores = Vcache.counters c2 in
  Alcotest.(check bool) "restart counters: 2 hits, 0 misses, 0 stores" true
    (hits = 2 && misses = 0 && stores = 0);
  Alcotest.(check int) "two entry files" 2
    (List.length (Vcache.disk_entries ~dir));
  Alcotest.(check int) "clear_dir removes both" 2 (Vcache.clear_dir ~dir);
  Alcotest.(check (option string)) "gone after clear_dir" None
    (Vcache.find (Vcache.create ~dir ()) "k1")

let test_staged_merge () =
  let root = Vcache.create () in
  Vcache.add root "a" "A";
  let s = Vcache.stage root in
  Alcotest.(check (option string)) "read falls through to parent" (Some "A")
    (Vcache.find s "a");
  Vcache.add s "b" "B";
  Alcotest.(check (option string)) "buffered write visible in the view"
    (Some "B") (Vcache.find s "b");
  Alcotest.(check (option string)) "not yet in the parent" None
    (Vcache.find root "b");
  Vcache.merge s;
  Alcotest.(check (option string)) "published by merge" (Some "B")
    (Vcache.find root "b");
  Alcotest.(check int) "merge clears the buffer" 0 (Vcache.size s)

let test_netlist_digest_stable () =
  let nl_of (m : Designs.Meta.t) = m.Designs.Meta.nl in
  let d1 = Hdl.Netlist.digest (nl_of (Designs.Ibex.build ())) in
  let d2 = Hdl.Netlist.digest (nl_of (Designs.Ibex.build ())) in
  Alcotest.(check string) "two elaborations digest identically" d1 d2;
  let core =
    Hdl.Netlist.digest (nl_of (Designs.Core.build Designs.Core.baseline))
  in
  Alcotest.(check bool) "different designs digest differently" false (d1 = core)

let overwrite path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_corruption_is_miss () =
  let dir = temp_dir () in
  let c = Vcache.create ~dir () in
  Vcache.add c "key" "a-reasonably-long-payload-to-truncate";
  let file, _ = List.hd (Vcache.disk_entries ~dir) in
  let path = Filename.concat dir file in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let miss what =
    Alcotest.(check (option string))
      (what ^ " reads as a miss")
      None
      (Vcache.find (Vcache.create ~dir ()) "key")
  in
  overwrite path (String.sub full 0 (String.length full - 5));
  miss "truncated blob";
  overwrite path (String.sub full 0 3);
  miss "truncated header";
  overwrite path "";
  miss "empty file";
  overwrite path "not a vcache file at all";
  miss "garbage header";
  overwrite path
    (Printf.sprintf "vcache %d 3\nkey\nxyz" (Vcache.format_version + 1));
  miss "version mismatch";
  (* A corrupt file is recoverable: adding the key again re-stores it. *)
  let c2 = Vcache.create ~dir () in
  ignore (Vcache.find c2 "key");
  Vcache.add c2 "key" "replacement";
  Alcotest.(check (option string)) "re-added after corruption"
    (Some "replacement")
    (Vcache.find (Vcache.create ~dir ()) "key")

let test_concurrent_writers () =
  let dir = temp_dir () in
  let root = Vcache.create ~dir () in
  (* 4 workers write overlapping key ranges covering k0..k63: staged views
     merged in task order, so the outcome is deterministic and every key
     keeps its (content-determined) value. *)
  let keys i = List.init 40 (fun j -> Printf.sprintf "k%d" (((i * 17) + j) mod 64)) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let stages = List.init 4 (fun _ -> Vcache.stage root) in
      ignore
        (Pool.mapi pool
           ~f:(fun i s -> List.iter (fun k -> Vcache.add s k ("v:" ^ k)) (keys i))
           stages);
      List.iter Vcache.merge stages;
      (* Unstaged root adds from several domains exercise the mutex. *)
      ignore
        (Pool.map pool
           ~f:(fun i ->
             Vcache.add root (Printf.sprintf "r%d" (i mod 8)) "shared")
           (List.init 32 Fun.id)));
  let reopened = Vcache.create ~dir () in
  List.iter
    (fun i ->
      let k = Printf.sprintf "k%d" i in
      Alcotest.(check (option string)) ("merged " ^ k) (Some ("v:" ^ k))
        (Vcache.find reopened k))
    [ 0; 17; 40; 56; 63 ];
  List.iter
    (fun i ->
      let k = Printf.sprintf "r%d" i in
      Alcotest.(check (option string)) ("root-added " ^ k) (Some "shared")
        (Vcache.find reopened k))
    [ 0; 7 ]

(* Self-heal: a poisoned directory recovers on its own — a truncated entry
   file is deleted the first time it reads as a miss, and tmp files left by
   interrupted atomic writes are swept when a store is created over the
   directory. *)
let test_self_heal () =
  let dir = temp_dir () in
  let c = Vcache.create ~dir () in
  Vcache.add c "key" "a-reasonably-long-payload-to-truncate";
  let file, _ = List.hd (Vcache.disk_entries ~dir) in
  let path = Filename.concat dir file in
  let full = In_channel.with_open_bin path In_channel.input_all in
  overwrite path (String.sub full 0 (String.length full - 5));
  Alcotest.(check (option string)) "truncated entry reads as a miss" None
    (Vcache.find (Vcache.create ~dir ()) "key");
  Alcotest.(check bool) "truncated entry file was deleted" false
    (Sys.file_exists path);
  (* Orphan tmp files (interrupted writers) are swept at create time — but
     only once they are older than the safety threshold, so a concurrently
     live writer's in-flight tmp file survives. *)
  let stale0 = Filename.concat dir ".tmp.12345.0" in
  let stale1 = Filename.concat dir ".tmp.12345.1" in
  let fresh = Filename.concat dir ".tmp.12345.2" in
  overwrite stale0 "half-written";
  overwrite stale1 "";
  overwrite fresh "in-flight";
  let old = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes stale0 old old;
  Unix.utimes stale1 old old;
  let c2 = Vcache.create ~dir () in
  Alcotest.(check bool) "stale orphan tmp files swept at create" false
    (Sys.file_exists stale0 || Sys.file_exists stale1);
  Alcotest.(check bool) "fresh tmp file (live writer) survives the sweep" true
    (Sys.file_exists fresh);
  Sys.remove fresh;
  (* The healed directory works normally afterwards. *)
  Vcache.add c2 "key" "replacement";
  Alcotest.(check (option string)) "healed directory stores again"
    (Some "replacement")
    (Vcache.find (Vcache.create ~dir ()) "key")

let test_stats_zero_props () =
  let s = Mc.Checker.Stats.create () in
  Alcotest.(check (float 0.)) "mean_time on 0 props" 0.
    (Mc.Checker.Stats.mean_time s);
  Alcotest.(check (float 0.)) "pct_undetermined on 0 props" 0.
    (Mc.Checker.Stats.pct_undetermined s);
  Alcotest.(check (float 0.)) "hit_rate on 0 props" 0.
    (Mc.Checker.Stats.hit_rate s)

(* Directed Stats.merge edge cases: zero/one-sided merges, all-cache-hit
   stats, and the lookup-based hit_rate denominator (stats merged in from
   an uncached checker must not dilute the rate). *)
let test_stats_merge_edges () =
  let module S = Mc.Checker.Stats in
  let mk ~props ~hits ~misses ~undet ~time =
    let s = S.create () in
    s.S.n_props <- props;
    s.S.n_cache_hits <- hits;
    s.S.n_cache_misses <- misses;
    s.S.n_undetermined <- undet;
    s.S.total_time <- time;
    s
  in
  (* empty + empty: still every-rate-guarded *)
  let e = S.merge (S.create ()) (S.create ()) in
  Alcotest.(check (float 0.)) "empty merge mean_time" 0. (S.mean_time e);
  Alcotest.(check (float 0.)) "empty merge pct_undetermined" 0.
    (S.pct_undetermined e);
  Alcotest.(check (float 0.)) "empty merge hit_rate" 0. (S.hit_rate e);
  (* one-sided merge preserves the populated side exactly *)
  let a = mk ~props:4 ~hits:4 ~misses:0 ~undet:1 ~time:2.0 in
  let one = S.merge a (S.create ()) in
  Alcotest.(check int) "one-sided props" 4 one.S.n_props;
  Alcotest.(check (float 1e-9)) "one-sided mean_time" 0.5 (S.mean_time one);
  Alcotest.(check (float 1e-9)) "one-sided pct_undetermined" 25.
    (S.pct_undetermined one);
  Alcotest.(check (float 0.)) "all-cache-hit shard hit_rate is 1.0" 1.
    (S.hit_rate one);
  (* merging in an uncached shard (props but no lookups) must not dilute
     the rate: 5 hits / 10 lookups = 0.5, regardless of the 20 props *)
  let cached = mk ~props:10 ~hits:5 ~misses:5 ~undet:0 ~time:1.0 in
  let uncached = mk ~props:10 ~hits:0 ~misses:0 ~undet:0 ~time:1.0 in
  let m = S.merge cached uncached in
  Alcotest.(check int) "mixed merge props" 20 m.S.n_props;
  Alcotest.(check (float 1e-9)) "hit_rate over lookups, not props" 0.5
    (S.hit_rate m);
  (* merge and copy return fresh records: mutating an input afterwards
     must not change them *)
  let snap = S.copy a in
  a.S.n_props <- 1000;
  a.S.n_undetermined <- 999;
  Alcotest.(check int) "copy is a snapshot" 4 snap.S.n_props;
  Alcotest.(check int) "merge result is fresh" 4 one.S.n_props

(* Two designs with the same interface names: a 32-bit input [a] and a
   1-bit register [hit] that resets to 0.  In the live one [hit] latches
   [a = 0xDEADBEEF]; in the dead one it holds 0.  Random stimulus never
   tells them apart, so a key that stood for behaviour under random
   stimulus instead of structure would hand the dead design's
   unreachability proof to the live one.  A store must miss instead. *)
let hit_design ~live =
  let module N = Hdl.Netlist in
  let nl = N.create "hit" in
  let a = N.input nl "a" 32 in
  let hit =
    N.reg nl ~name:"hit" ~init:(N.Init_value (Bitvec.zero 1)) ~width:1 ()
  in
  let deadbeef () = N.const nl (Bitvec.of_int ~width:32 0xDEADBEEF) in
  N.connect_reg nl hit (if live then N.op2 nl N.Eq a (deadbeef ()) else hit);
  (nl, hit)

let test_store_keeps_designs_apart () =
  let store = Vcache.create () in
  let check ~live =
    let nl, hit = hit_design ~live in
    Mc.Checker.check_cover
      (Mc.Checker.create ~cache:store ~assumes:[] nl)
      [ (hit, true) ]
  in
  Alcotest.(check string) "dead design's cover" "unreachable(inductive)"
    (Mc.Checker.outcome_tag (check ~live:false));
  Alcotest.(check string) "live design's cover on the same store" "reachable"
    (Mc.Checker.outcome_tag (check ~live:true));
  Alcotest.(check (triple int int int)) "hits / misses / stores" (0, 2, 2)
    (Vcache.counters store)

let suite =
  ( "vcache",
    [
      Alcotest.test_case "roundtrip + restart persistence" `Quick
        test_roundtrip_restart;
      Alcotest.test_case "staged views merge into parent" `Quick
        test_staged_merge;
      Alcotest.test_case "netlist digest stable across elaborations" `Quick
        test_netlist_digest_stable;
      Alcotest.test_case "corrupt entries read as misses" `Quick
        test_corruption_is_miss;
      Alcotest.test_case "corrupt entries + orphan tmp self-heal" `Quick
        test_self_heal;
      Alcotest.test_case "concurrent writers under Pool" `Quick
        test_concurrent_writers;
      Alcotest.test_case "stats guards on zero properties" `Quick
        test_stats_zero_props;
      Alcotest.test_case "stats merge edge cases" `Quick test_stats_merge_edges;
      Alcotest.test_case "store misses for a different design" `Quick
        test_store_keeps_designs_apart;
    ] )
