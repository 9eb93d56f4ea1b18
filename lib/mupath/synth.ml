module Checker = Mc.Checker
module SS = Set.Make (String)

type path = {
  pl_set : (string * Uhb.Revisit.t) list;
  hb_edges : (string * string) list;
}

type stage_stats = {
  mutable props : int;
  mutable presim_hits : int;
  mutable undetermined : int;
  mutable pruned_static : int;
  mutable pruned_absint : int;
}

type result = {
  instr : Isa.t;
  duv_pls : string list;
  pruned_duv_states : string list;
  iuv_pls : string list;
  implications : (string * string) list;
  exclusives : (string * string) list;
  naive_sets : int;
  candidate_sets : int;
  paths : path list;
  decisions : (string * string list list) list;
  revisit_counts : (string * int list) list;
  stage_stats : (string * stage_stats) list;
  checker_stats : Mc.Checker.Stats.t;
}

(* One completed (or partial) random episode's monitor snapshot. *)
type episode = {
  completed : bool;
  occ_any_seen : SS.t;
  occ_iuv_seen : SS.t;
  final_visited : SS.t;
  cons_seen : SS.t;
  reenter_seen : SS.t;
  edges_seen : (string * string) list;
  maxruns : (string * int) list;
  decision_obs : (string * SS.t) list;
}

(* Search bounds: candidate PL sets enumerated (§V-B3), the longest
   consecutive run a revisit count is checked for (§V-B6), and the cycles
   one simulation pre-pass episode may take before it is dropped. *)
let max_candidate_sets = 4096
let max_revisit_count = 12
let presim_cycles = 48

let run ?cache ?config ?stimulus ?(semantic_cache = false)
    ?(revisit_count_labels = []) ?(presim_episodes = 64) ?(static_prune = true)
    ?(absint = `On) ?(shards = 1) ~meta ~iuv ~iuv_pc () =
  let shards = max 1 shards in
  Obs.with_span "synth.run" ~args:[ ("instr", Isa.to_string iuv) ] @@ fun () ->
  (* Sharded cover batches run on a pool of [shards] domains of its own
     (unsharded, the pool spawns no domain and is never used). *)
  Pool.with_pool ~jobs:shards @@ fun pool ->
  let h =
    Harness.create ?cache ?config ?stimulus ~semantic_cache
      ~revisit_count_labels ~meta ~iuv ~iuv_pc ()
  in
  let nl = meta.Designs.Meta.nl in
  let chk = Harness.checker h in
  let labels = Harness.labels h in
  (* Static reachability pre-passes (see {!Prune}): over-approximate each
     µFSM's reachable state set; a cover over a state outside the
     over-approximation is provably unsatisfiable.  The known-bits pass
     re-runs the analysis with the bit-level invariants of the monitored
     netlist bounding what the plain value-set analysis widened to Top, and
     also kills any cover whose occupancy monitor bit is proven stuck at 0;
     it only counts covers the FSM abstraction did NOT already kill.  The
     dead covers never reach the checkers mid-stream in either mode (see
     the discharge after stage H). *)
  let reach span ?known () =
    Obs.with_span span (fun () ->
        List.filter_map
          (fun (u : Designs.Meta.ufsm) ->
            Option.map
              (fun set -> (u.Designs.Meta.ufsm_name, set))
              (Hdl.Analysis.fsm_reachable ?known nl ~vars:u.Designs.Meta.vars))
          meta.Designs.Meta.ufsms)
  in
  let static_reach = reach "synth.static_reach" () in
  let kb = Obs.with_span "synth.absint" (fun () -> Hdl.Absint.known_bits nl) in
  let absint_reach = reach "synth.absint_reach" ~known:kb () in
  let member_dead reach ((u : Designs.Meta.ufsm), v) =
    match List.assoc_opt u.Designs.Meta.ufsm_name reach with
    | None -> false (* abstraction bailed: nothing is pruned for this µFSM *)
    | Some set -> not (List.exists (Bitvec.equal v) set)
  in
  let group_members = Harness.pl_groups meta in
  let label_dead reach lbl =
    match List.assoc_opt lbl group_members with
    | Some members -> members <> [] && List.for_all (member_dead reach) members
    | None -> false
  in
  let static_dead_labels = List.filter (label_dead static_reach) labels in
  let absint_dead_labels =
    List.filter
      (fun lbl ->
        (not (List.mem lbl static_dead_labels))
        && (label_dead absint_reach lbl
           || Hdl.Absint.known_zero kb (Harness.occ_any h lbl)))
      labels
  in
  let static_dead_state (_, _, m) = member_dead static_reach m in
  let absint_dead_state ((_, occ, m) as info) =
    (not (static_dead_state info))
    && (member_dead absint_reach m || Hdl.Absint.known_zero kb occ)
  in
  (* Property sharding (off unless [shards > 1]): K checker instances over
     the same monitored netlist, each owning its own solver and unrolling.
     Shard 0 is the harness checker; the others get seeds derived from
     (base seed, shard index).  Independent cover batches within a stage
     are split round-robin across the instances and evaluated in parallel —
     trading the shared learned-clause store of one incremental solver for
     cores. *)
  (* Each non-zero shard writes verdicts into a staged view of the store
     (no lock contention from worker domains); every [sharded] join merges
     the staged writes back in shard order — the same deterministic-join
     discipline the stage counters use.  Shard 0 is the harness checker and
     talks to the shared store directly (its root layer is mutex-safe). *)
  let shard_caches =
    if shards <= 1 then [||]
    else
      Array.init shards (fun k ->
          if k = 0 then cache else Option.map Vcache.stage cache)
  in
  let shard_checkers =
    if shards <= 1 then [| chk |]
    else
      Array.init shards (fun k ->
          if k = 0 then chk
          else
            let base = Option.value config ~default:Checker.default_config in
            let cfg =
              { base with Checker.seed = Pool.derive_seed ~base:base.Checker.seed ~index:k }
            in
            Checker.create ?cache:shard_caches.(k) ?stimulus
              ~config:cfg ~sweep_barriers:(Designs.Meta.signals meta)
              ~semantic_cache ~assumes:(Harness.assumes h) nl)
  in
  let stage names =
    List.map
      (fun n ->
        ( n,
          {
            props = 0;
            presim_hits = 0;
            undetermined = 0;
            pruned_static = 0;
            pruned_absint = 0;
          } ))
      names
  in
  let stages =
    stage [ "duv_pl"; "iuv_pl"; "prune"; "pl_set"; "revisit"; "hb_edge"; "counts" ]
  in
  let st name = List.assoc name stages in
  let check stage_name lits =
    let s = st stage_name in
    s.props <- s.props + 1;
    let o = Checker.check_cover ~name:stage_name chk lits in
    (match o with
    | Checker.Undetermined -> s.undetermined <- s.undetermined + 1
    | _ -> ());
    o
  in
  let hit stage_name =
    let s = st stage_name in
    s.presim_hits <- s.presim_hits + 1
  in
  (* [sharded stage items ~f]: evaluate [f ~check ~hit x] for every item,
     order-preserving.  Unsharded, this is [List.map] on the main checker;
     sharded, chunk [i mod K] runs on checker K in a pool domain, with
     per-chunk stage counters merged at the join so the mutable stage
     records are never touched concurrently.  [f] must route every solver
     query through the [check] it is handed. *)
  let sharded : 'a 'r.
      string ->
      'a list ->
      f:
        (check:((Hdl.Netlist.signal * bool) list -> Checker.outcome) ->
        hit:(unit -> unit) ->
        'a ->
        'r) ->
      'r list =
   fun stage_name items ~f ->
    let go () =
      match shard_checkers with
      | [| _ |] ->
        List.map
          (f
             ~check:(fun lits -> check stage_name lits)
             ~hit:(fun () -> hit stage_name))
          items
      | cks ->
        let k = Array.length cks in
        let n = List.length items in
        let chunks = Array.make k [] in
        List.iteri (fun i x -> chunks.(i mod k) <- (i, x) :: chunks.(i mod k)) items;
        let results = Array.make n None in
        let locals =
          Pool.run pool
            (List.init k (fun ci () ->
                 let ck = cks.(ci) in
                 let props = ref 0 and undet = ref 0 and hits = ref 0 in
                 let check lits =
                   incr props;
                   let o = Checker.check_cover ~name:stage_name ck lits in
                   (match o with Checker.Undetermined -> incr undet | _ -> ());
                   o
                 in
                 let hit () = incr hits in
                 List.iter
                   (fun (i, x) -> results.(i) <- Some (f ~check ~hit x))
                   (List.rev chunks.(ci));
                 (!props, !undet, !hits)))
        in
        let s = st stage_name in
        List.iter
          (fun (p_, u, h_) ->
            s.props <- s.props + p_;
            s.undetermined <- s.undetermined + u;
            s.presim_hits <- s.presim_hits + h_)
          locals;
        (* Publish each shard's staged verdicts, in shard order, so later
           stages (and later runs) see them through the shared store. *)
        Array.iter (fun c -> Option.iter Vcache.merge c) shard_caches;
        Array.to_list
          (Array.map
             (function Some r -> r | None -> assert false)
             results)
    in
    if Obs.enabled () then
      Obs.with_span "synth.batch"
        ~args:
          [ ("stage", stage_name); ("items", string_of_int (List.length items)) ]
        go
    else go ()
  in

  (* ------------------------------------------------------------------ *)
  (* Simulation pre-pass: harvest completed executions.                   *)
  (* ------------------------------------------------------------------ *)
  let episode_assumes = Harness.assumes h in
  let run_episode seed =
    let sim = Sim.create ~seed nl in
    let gone_cycle = ref None in
    let occ_any_seen = ref SS.empty in
    let occ_iuv_seen = ref SS.empty in
    let decision_obs = ref [] in
    let prev_set = ref None in
    let aborted = ref false in
    let c = ref 0 in
    while (not !aborted) && !gone_cycle = None && !c < presim_cycles do
      (match stimulus with
      | Some f -> f sim !c
      | None -> Sim.poke_random_inputs sim);
      Sim.eval sim;
      (* The IUV-encoding assumption is enforced by construction of the
         stimulus; design environment assumptions must hold too. *)
      if not (List.for_all (fun a -> Sim.peek_bool sim a) episode_assumes) then
        aborted := true
      else begin
        let occ_now =
          List.fold_left
            (fun acc lbl ->
              if Sim.peek_bool sim (Harness.occ_iuv h lbl) then SS.add lbl acc
              else acc)
            SS.empty labels
        in
        List.iter
          (fun lbl ->
            if Sim.peek_bool sim (Harness.occ_any h lbl) then
              occ_any_seen := SS.add lbl !occ_any_seen)
          labels;
        occ_iuv_seen := SS.union occ_now !occ_iuv_seen;
        (match !prev_set with
        | Some prev when not (SS.is_empty prev) ->
          SS.iter (fun src -> decision_obs := (src, occ_now) :: !decision_obs) prev
        | _ -> ());
        prev_set := Some occ_now;
        if Sim.peek_bool sim (Harness.gone h) then gone_cycle := Some !c;
        Sim.step sim;
        incr c
      end
    done;
    if !aborted then None
    else begin
      Sim.eval sim;
      let flagged f =
        List.fold_left
          (fun acc lbl -> if Sim.peek_bool sim (f h lbl) then SS.add lbl acc else acc)
          SS.empty labels
      in
      let completed = !gone_cycle <> None in
      Some
        {
          completed;
          occ_any_seen = !occ_any_seen;
          occ_iuv_seen = !occ_iuv_seen;
          final_visited = flagged Harness.visited;
          cons_seen = flagged Harness.cons_flag;
          reenter_seen = flagged Harness.reenter_flag;
          edges_seen =
            List.filter
              (fun e -> Sim.peek_bool sim (Harness.edge_flag h e))
              (Harness.edge_candidates h);
          maxruns =
            List.filter_map
              (fun lbl ->
                let rec find n =
                  if n > Harness.max_run_limit then None
                  else if Sim.peek_bool sim (Harness.maxrun_eq h lbl n) then Some n
                  else find (n + 1)
                in
                Option.map (fun n -> (lbl, n)) (find 1))
              revisit_count_labels;
          decision_obs = !decision_obs;
        }
    end
  in
  let episodes =
    let go () =
      List.filter_map (fun i -> run_episode (0x9e3779b lxor (i * 2654435761))) (List.init presim_episodes (fun i -> i))
    in
    if Obs.enabled () then
      Obs.with_span "synth.presim"
        ~args:[ ("episodes", string_of_int presim_episodes) ]
        go
    else go ()
  in
  let completed_eps = List.filter (fun e -> e.completed) episodes in

  (* Soundness tripwire: a statically-dead PL observed occupied during
     random simulation contradicts the over-approximation — fail loudly
     rather than prune a live cover. *)
  List.iter
    (fun (abstraction, dead) ->
      List.iter
        (fun lbl ->
          if List.exists (fun e -> SS.mem lbl e.occ_any_seen) episodes then
            failwith
              (Printf.sprintf
                 "Synth: %s abstraction unsound: PL %s observed in simulation"
                 abstraction lbl))
        dead)
    [ ("static reachability", static_dead_labels); ("known-bits", absint_dead_labels) ];

  (* ------------------------------------------------------------------ *)
  (* Stage A: PL reachability for the DUV (§V-B1).                        *)
  (* ------------------------------------------------------------------ *)
  let live_labels =
    List.filter
      (fun lbl ->
        (not (List.mem lbl static_dead_labels))
        && not (List.mem lbl absint_dead_labels))
      labels
  in
  let duv_pls =
    let keeps =
      sharded "duv_pl" live_labels ~f:(fun ~check ~hit lbl ->
          if List.exists (fun e -> SS.mem lbl e.occ_any_seen) episodes then begin
            hit ();
            true
          end
          else
            match check [ (Harness.occ_any h lbl, true) ] with
            | Checker.Reachable _ -> true
            | Checker.Unreachable _ | Checker.Undetermined -> false)
    in
    let keep_of = List.combine live_labels keeps in
    List.filter
      (fun lbl -> List.assoc_opt lbl keep_of = Some true)
      labels
  in
  let unlabeled_info = Harness.unlabeled_state_info h in
  let statically_dead info = static_dead_state info || absint_dead_state info in
  let undecided_unlabeled =
    List.filter (fun info -> not (statically_dead info)) unlabeled_info
  in
  let undecided_pruned =
    sharded "duv_pl" undecided_unlabeled ~f:(fun ~check ~hit:_ (name, occ, _) ->
        match check [ (occ, true) ] with
        | Checker.Reachable _ -> (name, false)
        | Checker.Unreachable _ | Checker.Undetermined -> (name, true))
  in
  let pruned_duv_states =
    List.filter_map
      (fun ((name, _, _) as info) ->
        if statically_dead info || List.assoc_opt name undecided_pruned = Some true
        then Some name
        else None)
      unlabeled_info
  in

  (* ------------------------------------------------------------------ *)
  (* Stage B: PL reachability for the IUV (§V-B2).                        *)
  (* ------------------------------------------------------------------ *)
  let iuv_pls =
    let keeps =
      sharded "iuv_pl" duv_pls ~f:(fun ~check ~hit lbl ->
          if List.exists (fun e -> SS.mem lbl e.occ_iuv_seen) episodes then begin
            hit ();
            true
          end
          else
            match check [ (Harness.occ_iuv h lbl, true) ] with
            | Checker.Reachable _ -> true
            | Checker.Unreachable _ | Checker.Undetermined -> false)
    in
    List.filter_map (fun (lbl, keep) -> if keep then Some lbl else None)
      (List.combine duv_pls keeps)
  in

  (* ------------------------------------------------------------------ *)
  (* Stage C: dominates / exclusive pruning (§V-B3).                      *)
  (* ------------------------------------------------------------------ *)
  let gone_lit = (Harness.gone h, true) in
  let implications =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a = b then None
            else if
              List.exists
                (fun e -> SS.mem a e.final_visited && not (SS.mem b e.final_visited))
                completed_eps
            then begin
              hit "prune";
              None
            end
            else
              match
                check "prune"
                  [ gone_lit; (Harness.visited h a, true); (Harness.visited h b, false) ]
              with
              | Checker.Unreachable _ -> Some (a, b)
              | Checker.Reachable _ | Checker.Undetermined -> None)
          iuv_pls)
      iuv_pls
  in
  let exclusives =
    let rec pairs = function
      | [] -> []
      | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
    in
    List.filter
      (fun (a, b) ->
        if
          List.exists
            (fun e -> SS.mem a e.final_visited && SS.mem b e.final_visited)
            completed_eps
        then begin
          hit "prune";
          false
        end
        else
          match
            check "prune"
              [ gone_lit; (Harness.visited h a, true); (Harness.visited h b, true) ]
          with
          | Checker.Unreachable _ -> true
          | Checker.Reachable _ | Checker.Undetermined -> false)
      (pairs iuv_pls)
  in

  (* ------------------------------------------------------------------ *)
  (* Candidate PL sets: subsets closed under implications, avoiding        *)
  (* exclusive pairs (§V-B3).                                             *)
  (* ------------------------------------------------------------------ *)
  let naive_sets =
    if List.length iuv_pls >= 62 then max_int else 1 lsl List.length iuv_pls
  in
  let candidates =
    let out = ref [] in
    let n_out = ref 0 in
    let arr = Array.of_list iuv_pls in
    let n = Array.length arr in
    let rec go i chosen =
      if !n_out >= max_candidate_sets then ()
      else if i = n then begin
        if not (SS.is_empty chosen) then begin
          let ok_impl =
            List.for_all
              (fun (a, b) -> (not (SS.mem a chosen)) || SS.mem b chosen)
              implications
          in
          if ok_impl then begin
            out := chosen :: !out;
            incr n_out
          end
        end
      end
      else begin
        (* exclude arr.(i) *)
        go (i + 1) chosen;
        (* include arr.(i) unless it clashes with an exclusive partner *)
        let l = arr.(i) in
        let clash =
          List.exists
            (fun (a, b) ->
              (a = l && SS.mem b chosen) || (b = l && SS.mem a chosen))
            exclusives
        in
        if not clash then go (i + 1) (SS.add l chosen)
      end
    in
    go 0 SS.empty;
    List.rev !out
  in

  (* ------------------------------------------------------------------ *)
  (* Stage D/E: PL-set reachability (§V-B4) and witness collection.       *)
  (* ------------------------------------------------------------------ *)
  let set_pattern s =
    List.map
      (fun lbl -> (Harness.visited h lbl, SS.mem lbl s))
      iuv_pls
  in
  let decision_obs_all = ref (List.concat_map (fun e -> e.decision_obs) completed_eps) in
  let cex_occ cex lbl cyc =
    not
      (Bitvec.is_zero (Checker.Cex.value_exn cex ("mon_occ_" ^ lbl) ~cycle:cyc))
  in
  let cex_bool cex name cyc =
    not (Bitvec.is_zero (Checker.Cex.value_exn cex name ~cycle:cyc))
  in
  let harvest_cex_into acc cex =
    (* Extract decision observations from a witness trace, up to the cycle
       the IUV disappears. *)
    let len = Checker.Cex.length cex in
    let prev = ref SS.empty in
    (try
       for c = 0 to len - 1 do
         if cex_bool cex "mon_gone" c then raise Exit;
         let now =
           List.fold_left
             (fun acc lbl -> if cex_occ cex lbl c then SS.add lbl acc else acc)
             SS.empty labels
         in
         if not (SS.is_empty !prev) then
           SS.iter (fun src -> acc := (src, now) :: !acc) !prev;
         prev := now
       done
     with Exit -> ());
    ()
  in
  let harvest_cex cex = harvest_cex_into decision_obs_all cex in
  let reachable_sets =
    (* Sharded tasks return any harvested observations instead of touching
       the shared accumulator; the merge happens at the (sequential) join. *)
    let candidates_checked =
      sharded "pl_set" candidates ~f:(fun ~check ~hit s ->
          let presim_matches =
            List.filter (fun e -> SS.equal e.final_visited s) completed_eps
          in
          if presim_matches <> [] then begin
            hit ();
            Some (s, presim_matches, [])
          end
          else
            match check (gone_lit :: set_pattern s) with
            | Checker.Reachable cex ->
              let harvested = ref [] in
              harvest_cex_into harvested cex;
              (* Synthesize an episode-like record from the witness tail. *)
              let last = Checker.Cex.length cex - 1 in
              let flags name =
                List.fold_left
                  (fun acc lbl ->
                    if cex_bool cex ("mon_" ^ name ^ "_" ^ lbl) last then
                      SS.add lbl acc
                    else acc)
                  SS.empty labels
              in
              let ep =
                {
                  completed = true;
                  occ_any_seen = SS.empty;
                  occ_iuv_seen = s;
                  final_visited = s;
                  cons_seen = flags "cons";
                  reenter_seen = flags "reenter";
                  edges_seen =
                    List.filter
                      (fun (a, b) ->
                        cex_bool cex (Printf.sprintf "mon_edge_%s__%s" a b) last)
                      (Harness.edge_candidates h);
                  maxruns = [];
                  decision_obs = [];
                }
              in
              Some (s, [ ep ], !harvested)
            | Checker.Unreachable _ | Checker.Undetermined -> None)
    in
    List.filter_map
      (Option.map (fun (s, eps, harvested) ->
           decision_obs_all := harvested @ !decision_obs_all;
           (s, eps)))
      candidates_checked
  in

  (* ------------------------------------------------------------------ *)
  (* Stage F: revisit classification per reachable set.                   *)
  (* ------------------------------------------------------------------ *)
  let paths =
    List.map
      (fun (s, eps) ->
        let pattern = set_pattern s in
        let flag_possible stage_name observed flag_sig =
          if observed then begin
            hit stage_name;
            true
          end
          else
            match check stage_name (gone_lit :: (flag_sig, true) :: pattern) with
            | Checker.Reachable cex ->
              harvest_cex cex;
              true
            | Checker.Unreachable _ | Checker.Undetermined -> false
        in
        let pl_set =
          List.map
            (fun lbl ->
              let cons =
                flag_possible "revisit"
                  (List.exists (fun e -> SS.mem lbl e.cons_seen) eps)
                  (Harness.cons_flag h lbl)
              in
              let reent =
                flag_possible "revisit"
                  (List.exists (fun e -> SS.mem lbl e.reenter_seen) eps)
                  (Harness.reenter_flag h lbl)
              in
              let r =
                match (cons, reent) with
                | false, false -> Uhb.Revisit.Once
                | true, false -> Uhb.Revisit.Consecutive
                | false, true -> Uhb.Revisit.Non_consecutive
                | true, true -> Uhb.Revisit.Both
              in
              (lbl, r))
            (SS.elements s)
        in
        let hb_edges =
          List.filter
            (fun ((a, b) as e) ->
              SS.mem a s && SS.mem b s
              && flag_possible "hb_edge"
                   (List.exists (fun ep -> List.mem e ep.edges_seen) eps)
                   (Harness.edge_flag h e))
            (Harness.edge_candidates h)
        in
        { pl_set; hb_edges })
      reachable_sets
  in

  (* ------------------------------------------------------------------ *)
  (* Stage H: revisit cycle counts (§V-B6 mode (i)).                      *)
  (* ------------------------------------------------------------------ *)
  let revisit_counts =
    List.map
      (fun lbl ->
        let observed =
          List.sort_uniq Int.compare
            (List.concat_map
               (fun e ->
                 List.filter_map
                   (fun (l, n) -> if l = lbl then Some n else None)
                   e.maxruns)
               completed_eps)
        in
        let all =
          List.filter
            (fun n ->
              if List.mem n observed then begin
                hit "counts";
                true
              end
              else
                match
                  check "counts" [ gone_lit; (Harness.maxrun_eq h lbl n, true) ]
                with
                | Checker.Reachable _ -> true
                | Checker.Unreachable _ | Checker.Undetermined -> false)
            (List.init max_revisit_count (fun i -> i + 1))
        in
        (lbl, all))
      revisit_count_labels
  in

  (* Discharge the statically-dead covers after the main stream, FSM
     abstraction first, each pre-pass's labeled PLs before its unlabeled
     states (see {!Prune}). *)
  let discharge mode abstraction dead_labels dead_state =
    Prune.discharge mode ~check:(check "duv_pl")
      (List.map
         (fun lbl -> (abstraction, "PL " ^ lbl, [ (Harness.occ_any h lbl, true) ]))
         dead_labels
      @ List.filter_map
          (fun ((name, occ, _) as info) ->
            if dead_state info then Some (abstraction, "state " ^ name, [ (occ, true) ])
            else None)
          unlabeled_info)
  in
  let s = st "duv_pl" in
  s.pruned_static <-
    discharge
      (if static_prune then `On else `Audit)
      "static reachability" static_dead_labels static_dead_state;
  s.pruned_absint <- discharge absint "known-bits" absint_dead_labels absint_dead_state;
  if Obs.enabled () then begin
    Obs.Metrics.incr "synth.pruned_static" ~by:s.pruned_static;
    Obs.Metrics.incr "synth.pruned_absint" ~by:s.pruned_absint
  end;

  (* Decisions (§IV-B): aggregate per source PL. *)
  let decisions =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (src, dsts) ->
        let key = src in
        let cur = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
        let dl = SS.elements dsts in
        if not (List.mem dl cur) then Hashtbl.replace tbl key (dl :: cur))
      !decision_obs_all;
    List.filter_map
      (fun lbl ->
        match Hashtbl.find_opt tbl lbl with
        | Some dsts -> Some (lbl, List.sort compare dsts)
        | None -> None)
      labels
  in

  {
    instr = iuv;
    duv_pls;
    pruned_duv_states;
    iuv_pls;
    implications;
    exclusives;
    naive_sets;
    candidate_sets = List.length candidates;
    paths;
    decisions;
    revisit_counts;
    stage_stats = stages;
    checker_stats =
      (* Snapshot, never the live record: the harness checker keeps
         mutating its stats if the caller reuses it, and the result must
         not change under it. *)
      (match shard_checkers with
      | [| c |] -> Checker.Stats.copy (Checker.stats c)
      | cks ->
        Array.fold_left
          (fun acc c -> Checker.Stats.merge acc (Checker.stats c))
          (Checker.Stats.create ()) cks);
  }

let pl_of_label instr lbl =
  ignore instr;
  Uhb.Pl.make ~ufsm:"grp" ~label:lbl ~state:(Bitvec.zero 1)

let to_uhb_paths r =
  List.map
    (fun p ->
      let pls =
        List.map (fun (lbl, rv) -> (pl_of_label r.instr lbl, rv)) p.pl_set
      in
      let edges =
        List.map
          (fun (a, b) -> (pl_of_label r.instr a, pl_of_label r.instr b))
          p.hb_edges
      in
      (* Drop edges that would make the HB relation cyclic (observations of
         distinct executions can compose into cycles; keep a consistent
         prefix). *)
      let rec keep_acyclic acc = function
        | [] -> List.rev acc
        | e :: rest ->
          let cand =
            Uhb.Path.make ~instr:(Isa.to_string r.instr) ~pls
              ~edges:(List.rev (e :: acc))
          in
          if Uhb.Path.check_acyclic cand then keep_acyclic (e :: acc) rest
          else keep_acyclic acc rest
      in
      let edges = keep_acyclic [] edges in
      Uhb.Path.make ~instr:(Isa.to_string r.instr) ~pls ~edges)
    r.paths

let to_uhb_decisions r =
  List.concat_map
    (fun (src, dsts) ->
      List.map
        (fun dst ->
          Uhb.Decision.make
            ~src:(pl_of_label r.instr src)
            ~dsts:(List.map (pl_of_label r.instr) dst))
        dsts)
    r.decisions

(* Semantic fields only: stage_stats and checker_stats are observability
   (they vary with prune modes, cache warmth, and shard count), so two runs
   that uncovered the same µPATH set digest identically — the same contract
   as Synthlc.Engine.report_digest. *)
let result_digest r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.instr,
            r.duv_pls,
            r.pruned_duv_states,
            r.iuv_pls,
            r.implications,
            r.exclusives,
            (r.naive_sets, r.candidate_sets),
            r.paths,
            r.decisions,
            r.revisit_counts )
          [ Marshal.No_sharing ]))

let pp_result fmt r =
  Format.fprintf fmt "@[<v>== RTL2MuPATH result for %s ==@," (Isa.to_string r.instr);
  Format.fprintf fmt "DUV PLs (%d): %s@," (List.length r.duv_pls)
    (String.concat " " r.duv_pls);
  Format.fprintf fmt "pruned unlabeled states: %d@," (List.length r.pruned_duv_states);
  Format.fprintf fmt "IUV PLs (%d): %s@," (List.length r.iuv_pls)
    (String.concat " " r.iuv_pls);
  Format.fprintf fmt "power set %d -> candidates %d -> reachable uPATHs %d@,"
    r.naive_sets r.candidate_sets (List.length r.paths);
  List.iteri
    (fun i p ->
      Format.fprintf fmt "uPATH %d: {%s}@," i
        (String.concat ", "
           (List.map
              (fun (lbl, rv) -> Format.asprintf "%s[%a]" lbl Uhb.Revisit.pp rv)
              p.pl_set));
      Format.fprintf fmt "  edges: %s@,"
        (String.concat " "
           (List.map (fun (a, b) -> Printf.sprintf "%s->%s" a b) p.hb_edges)))
    r.paths;
  List.iter
    (fun (src, dsts) ->
      if List.length dsts > 1 then
        Format.fprintf fmt "decision source %s: %d destinations@," src
          (List.length dsts))
    r.decisions;
  List.iter
    (fun (lbl, ns) ->
      Format.fprintf fmt "revisit counts %s: %s@," lbl
        (String.concat "," (List.map string_of_int ns)))
    r.revisit_counts;
  List.iter
    (fun (name, s) ->
      Format.fprintf fmt
        "stage %-8s: %4d props, %4d presim hits, %d undetermined%s%s@," name
        s.props s.presim_hits s.undetermined
        (if s.pruned_static > 0 then
           Printf.sprintf ", %d static-pruned" s.pruned_static
         else "")
        (if s.pruned_absint > 0 then
           Printf.sprintf ", %d known-bits-pruned" s.pruned_absint
         else ""))
    r.stage_stats;
  Format.fprintf fmt "checker: %a@]" Mc.Checker.Stats.pp r.checker_stats
