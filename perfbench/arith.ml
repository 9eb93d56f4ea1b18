(* The arithmetic the benchmark reports through: medians, the percentile
   rule, span self times and the failure ratio.  Pure, so [self_test] can
   check it on synthetic inputs before any run is trusted. *)

let median = function
  | [] -> invalid_arg "Arith.median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank [p]-quantile, reported only when at least [beyond] samples
   lie strictly above its rank: a p90 needs 100 samples, a p50 needs 20. *)
let percentile ?(beyond = 10) p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || rank < 1 || n - rank < beyond then None else Some a.(rank - 1)

(* A completed span as [Obs] records it: start and duration in ns on one
   domain. *)
type span = { name : string; ts : int; dur : int; tid : int }

(* Self time per span name, in seconds: each span's duration minus the
   durations of its direct children, nesting taken from timestamps within
   one domain (the Chrome trace-event convention [Obs] follows).  Instant
   events carry no time.  Over properly nested spans the self times of
   every span under a root add up to the root's duration exactly. *)
let self_times spans =
  let tbl = Hashtbl.create 16 in
  let add name ns =
    Hashtbl.replace tbl name
      (ns + Option.value (Hashtbl.find_opt tbl name) ~default:0)
  in
  let indexed =
    List.mapi (fun i s -> (i, s)) (List.filter (fun s -> s.dur > 0) spans)
  in
  (* Parents first: earlier start, then longer duration, then (for
     identical intervals) the one recorded later, since [Obs] records a
     span when it completes. *)
  let order (i, a) (j, b) =
    compare (a.tid, a.ts, -a.dur, -i) (b.tid, b.ts, -b.dur, -j)
  in
  let selfs = Hashtbl.create 64 in
  let stack = ref [] in
  List.iter
    (fun (i, s) ->
      let rec unwind () =
        match !stack with
        | (_, top) :: rest when top.tid <> s.tid || s.ts >= top.ts + top.dur ->
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | (j, _) :: _ -> Hashtbl.replace selfs j (Hashtbl.find selfs j - s.dur)
      | [] -> ());
      Hashtbl.replace selfs i s.dur;
      stack := (i, s) :: !stack)
    (List.sort order indexed);
  List.iter (fun (i, s) -> add s.name (Hashtbl.find selfs i)) indexed;
  Hashtbl.fold (fun name ns acc -> (name, float_of_int ns *. 1e-9) :: acc) tbl []
  |> List.sort compare

(* Covers left [Undetermined] per checker call; a run that failed its gate
   counts as wholly failed. *)
let fail_ratio ~passed ~undetermined ~calls =
  if (not passed) || calls <= 0 then 1.
  else float_of_int undetermined /. float_of_int calls

let self_test () =
  let close a b = Float.abs (a -. b) < 1e-12 in
  let ms name ts dur = { name; ts = ts * 1_000_000; dur = dur * 1_000_000; tid = 0 } in
  (* root 0..100 ms holding a 10..60 parent (itself holding two siblings
     10..20 and 30..50) and a sibling 70..90; a second domain's span and an
     instant event must not interfere. *)
  let spans =
    [
      ms "leaf" 10 10;
      ms "leaf" 30 20;
      ms "mid" 10 50;
      ms "side" 70 20;
      { (ms "other" 5 80) with tid = 1 };
      ms "instant" 40 0;
      ms "root" 0 100;
    ]
  in
  let st = self_times spans in
  let get n = Option.value (List.assoc_opt n st) ~default:nan in
  let nested_ok =
    close (get "root") 0.030 && close (get "mid") 0.020
    && close (get "leaf") 0.030 && close (get "side") 0.020
    && close (get "other") 0.080
    && (not (List.mem_assoc "instant" st))
    && close
         (get "root" +. get "mid" +. get "leaf" +. get "side")
         0.100
  in
  (* identical intervals: one is the parent, the other gets all the time *)
  let twins = self_times [ ms "inner" 0 10; ms "outer" 0 10 ] in
  let twins_ok =
    close (List.assoc "inner" twins) 0.010 && close (List.assoc "outer" twins) 0.
  in
  let ramp n = List.init n (fun i -> float_of_int (i + 1)) in
  let pct_ok =
    percentile 0.9 (ramp 100) = Some 90.
    && percentile 0.9 (ramp 99) = None
    && percentile 0.5 (ramp 20) = Some 10.
    && percentile 0.5 (ramp 19) = None
    && percentile 0.5 (ramp 12) = None
    && median [ 3.; 1.; 2. ] = 2.
    && median [ 4.; 1.; 3.; 2. ] = 2.5
  in
  let fail_ok =
    fail_ratio ~passed:false ~undetermined:0 ~calls:101 = 1.
    && fail_ratio ~passed:true ~undetermined:0 ~calls:101 = 0.
    && close (fail_ratio ~passed:true ~undetermined:1 ~calls:4) 0.25
    && fail_ratio ~passed:true ~undetermined:0 ~calls:0 = 1.
  in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (nested_ok, "self time on nested and sibling spans");
      (twins_ok, "self time on identical intervals");
      (pct_ok, "percentile sample rule");
      (fail_ok, "fail_ratio");
    ]
