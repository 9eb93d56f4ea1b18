(* Fuzz campaign driver.  See driver.mli. *)

type failure_row = {
  fr_index : int;
  fr_oracle : Oracle.oracle;
  fr_message : string;
  fr_config : Gen.config;
  fr_shrunk : Gen.config;
  fr_shrink_steps : int;
  fr_reproducer : string;
}

type summary = {
  seed : int;
  count : int;
  budget_s : float;
  depth : int;
  episodes : int;
  designs : (int * Oracle.outcome) list;
  failures : failure_row list;
  skipped : int;
  total_time_s : float;
}

let default_depth = 6
let default_episodes = 3

let reproducer ~seed ~depth ~episodes ~defect index =
  String.concat ""
    [
      Printf.sprintf "synthlc fuzz --seed %d --only %d" seed index;
      (match defect with
      | None -> ""
      | Some d -> " --inject-defect " ^ Gen.defect_name d);
      (if depth = default_depth then "" else Printf.sprintf " --depth %d" depth);
      (if episodes = default_episodes then ""
       else Printf.sprintf " --episodes %d" episodes);
    ]

(* Greedy descent: first reduction that still fails the same oracle class
   wins; the re-run budget bounds worst-case shrink cost (each re-run is a
   full oracle battery, expensive for engine-class failures). *)
let shrink ?depth ?episodes ?workdir oracle cfg =
  let budget = ref 24 in
  let rec go cfg steps =
    let candidates = Gen.shrink_steps cfg in
    let next =
      List.find_opt
        (fun c ->
          !budget > 0
          && begin
               decr budget;
               Oracle.fails_like ?depth ?episodes ?workdir oracle c
             end)
        candidates
    in
    match next with None -> (cfg, steps) | Some c -> go c (steps + 1)
  in
  go cfg 0

(* --- JSON rendering --------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""

let verdict_json = function
  | Oracle.Pass -> {|"pass"|}
  | Oracle.Skipped -> {|"skipped"|}
  | Oracle.Fail m -> Printf.sprintf {|{"fail":%s}|} (jstr m)

let outcome_json index (o : Oracle.outcome) =
  let verdicts =
    List.map
      (fun (orc, v) ->
        Printf.sprintf "%s:%s" (jstr (Oracle.oracle_name orc)) (verdict_json v))
      o.Oracle.verdicts
  in
  Printf.sprintf
    {|{"index":%d,"name":%s,"config":%s,"describe":%s,"netlist_digest":%s,"report_digest":%s,"oracles":{%s},"mupath_props":%d,"flow_props":%d,"pruned_static":%d,"flow_pruned_static":%d,"checker_props":%d,"time_s":%.3f}|}
    index
    (jstr (Gen.name o.Oracle.config))
    (Gen.to_json o.Oracle.config)
    (jstr (Gen.describe o.Oracle.config))
    (jstr o.Oracle.netlist_digest)
    (match o.Oracle.report_digest with None -> "null" | Some d -> jstr d)
    (String.concat "," verdicts)
    o.Oracle.mupath_props o.Oracle.flow_props o.Oracle.pruned_static
    o.Oracle.flow_pruned_static o.Oracle.checker_props o.Oracle.time_s

let failure_json f =
  Printf.sprintf
    {|{"index":%d,"oracle":%s,"message":%s,"config":%s,"shrunk_config":%s,"shrunk_describe":%s,"shrink_steps":%d,"reproducer":%s}|}
    f.fr_index
    (jstr (Oracle.oracle_name f.fr_oracle))
    (jstr f.fr_message) (Gen.to_json f.fr_config) (Gen.to_json f.fr_shrunk)
    (jstr (Gen.describe f.fr_shrunk))
    f.fr_shrink_steps (jstr f.fr_reproducer)

let summary_to_json s =
  Printf.sprintf
    {|{"schema":"synthlc-fuzz-corpus/1","seed":%d,"count":%d,"budget_s":%.1f,"depth":%d,"episodes":%d,"designs_run":%d,"designs_skipped":%d,"failures_count":%d,"designs":[%s],"failures":[%s],"total_time_s":%.3f}
|}
    s.seed s.count s.budget_s s.depth s.episodes (List.length s.designs)
    s.skipped (List.length s.failures)
    (String.concat "," (List.map (fun (i, o) -> outcome_json i o) s.designs))
    (String.concat "," (List.map failure_json s.failures))
    s.total_time_s

let exit_code s = if s.failures = [] then 0 else 1

(* --- campaign --------------------------------------------------------- *)

let campaign ?(depth = default_depth) ?(episodes = default_episodes) ?workdir
    ?(defect = None) ?only ?(budget_s = 0.) ?(log = fun _ -> ()) ~seed ~count
    () =
  if depth < 0 then invalid_arg "fuzz: --depth must be non-negative";
  if episodes < 0 then invalid_arg "fuzz: --episodes must be non-negative";
  let t0 = Unix.gettimeofday () in
  let targets =
    match only with
    | Some i ->
      if i < 0 then invalid_arg "fuzz: --only index must be non-negative";
      [ i ]
    | None ->
      if count < 1 then invalid_arg "fuzz: --count must be at least 1";
      List.init count (fun i -> i)
  in
  let designs = ref [] in
  let failures = ref [] in
  let skipped = ref 0 in
  List.iter
    (fun i ->
      let elapsed = Unix.gettimeofday () -. t0 in
      if budget_s > 0. && elapsed > budget_s && !designs <> [] then begin
        incr skipped;
        log (Printf.sprintf "fuzz[%3d] skipped (budget %.0fs exhausted)" i budget_s)
      end
      else begin
        let cfg = { (Gen.config_for ~seed i) with Gen.defect } in
        let outcome = Oracle.run ~depth ~episodes ?workdir cfg in
        designs := (i, outcome) :: !designs;
        match Oracle.failure outcome with
        | None ->
          log
            (Printf.sprintf "fuzz[%3d] %-52s ok    %d oracles, %d+%d props, %.1fs"
               i (Gen.describe cfg)
               (List.length
                  (List.filter (fun (_, v) -> v = Oracle.Pass) outcome.Oracle.verdicts))
               outcome.Oracle.mupath_props outcome.Oracle.flow_props
               outcome.Oracle.time_s)
        | Some (oracle, msg) ->
          log
            (Printf.sprintf "fuzz[%3d] %-52s FAIL  oracle %s: %s" i
               (Gen.describe cfg) (Oracle.oracle_name oracle) msg);
          let shrunk, steps = shrink ~depth ~episodes ?workdir oracle cfg in
          if steps > 0 then
            log
              (Printf.sprintf "fuzz[%3d]   shrunk %d step(s) to: %s" i steps
                 (Gen.describe shrunk));
          let repro = reproducer ~seed ~depth ~episodes ~defect i in
          log (Printf.sprintf "fuzz[%3d]   reproduce with: %s" i repro);
          failures :=
            {
              fr_index = i;
              fr_oracle = oracle;
              fr_message = msg;
              fr_config = cfg;
              fr_shrunk = shrunk;
              fr_shrink_steps = steps;
              fr_reproducer = repro;
            }
            :: !failures
      end)
    targets;
  {
    seed;
    count = List.length targets;
    budget_s;
    depth;
    episodes;
    designs = List.rev !designs;
    failures = List.rev !failures;
    skipped = !skipped;
    total_time_s = Unix.gettimeofday () -. t0;
  }
