(* Cover-property checking: the model-checking interface RTL2MuPATH and
   SynthLC drive (SS V-B).  A cover property asks for any execution trace, from
   a valid reset state and subject to per-cycle assumptions, on which a given
   1-bit signal becomes true.  Three outcomes mirror the paper: [Reachable]
   (with a witness trace), [Unreachable] (with a proof kind), and
   [Undetermined] (budget exhausted).

   Engine pipeline, cheapest first:
   1. constrained-random simulation — a simulated hit proves reachability;
   2. incremental BMC over a shared unrolling — SAT proves reachability;
   3. k-induction with simple-path constraints, over one shared free-state
      unrolling whose extension frames are gated — UNSAT step proves
      genuine unreachability;
   4. otherwise, exhausting the BMC depth without solver budget overruns
      yields a bounded unreachability verdict ([Bounded]), the analogue of
      the paper's undetermined-as-unreachable configuration (SS VII-B4).

   The SAT engines may run on an equivalence-swept copy of the netlist
   ([config.sweep]): [Hdl.Equiv.reduce] merges proven-equivalent
   combinational nodes and every engine query is translated through the
   total old->new signal mapping.  BMC witnesses are canonicalized
   (minimal hit time, then lexicographically-minimal free variables) so
   the reported witness depends only on the design's semantics, never on
   which encoding the solver happened to search — the mechanism that
   keeps report digests bit-identical across sweep modes, cache warmth,
   and gate-level vs word-level variants of one design. *)

module Netlist = Hdl.Netlist
module Solver = Sat.Solver

module Cex = struct
  (* A witness trace: values of every named signal, per cycle. *)
  type t = { length : int; values : (string * Bitvec.t array) list }

  let length t = t.length

  let value t name ~cycle =
    match List.assoc_opt name t.values with
    | None -> None
    | Some arr -> if cycle < 0 || cycle >= t.length then None else Some arr.(cycle)

  let value_exn t name ~cycle =
    match value t name ~cycle with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Cex.value_exn: %s@%d" name cycle)

  let equal a b =
    a.length = b.length
    && List.length a.values = List.length b.values
    && List.for_all2
         (fun (na, va) (nb, vb) ->
           String.equal na nb
           && Array.length va = Array.length vb
           && Array.for_all2 Bitvec.equal va vb)
         a.values b.values

  let pp fmt t =
    Format.fprintf fmt "@[<v>";
    List.iter
      (fun (name, arr) ->
        Format.fprintf fmt "%-24s" name;
        Array.iter (fun v -> Format.fprintf fmt " %s" (Bitvec.to_hex_string v)) arr;
        Format.fprintf fmt "@,")
      t.values;
    Format.fprintf fmt "@]"
end

type proof = Inductive of int | Bounded of int

type outcome = Reachable of Cex.t | Unreachable of proof | Undetermined

let outcome_tag = function
  | Reachable _ -> "reachable"
  | Unreachable (Inductive _) -> "unreachable(inductive)"
  | Unreachable (Bounded _) -> "unreachable(bounded)"
  | Undetermined -> "undetermined"

module Stats = struct
  type t = {
    mutable n_props : int;
    mutable n_reachable : int;
    mutable n_unreachable : int;
    mutable n_undetermined : int;
    mutable n_sim_discharged : int;
    mutable n_inductive : int;
    mutable n_cache_hits : int;
    mutable n_cache_misses : int;
    mutable total_time : float;
  }

  let create () =
    {
      n_props = 0;
      n_reachable = 0;
      n_unreachable = 0;
      n_undetermined = 0;
      n_sim_discharged = 0;
      n_inductive = 0;
      n_cache_hits = 0;
      n_cache_misses = 0;
      total_time = 0.;
    }

  let mean_time t = if t.n_props = 0 then 0. else t.total_time /. float_of_int t.n_props

  let merge a b =
    {
      n_props = a.n_props + b.n_props;
      n_reachable = a.n_reachable + b.n_reachable;
      n_unreachable = a.n_unreachable + b.n_unreachable;
      n_undetermined = a.n_undetermined + b.n_undetermined;
      n_sim_discharged = a.n_sim_discharged + b.n_sim_discharged;
      n_inductive = a.n_inductive + b.n_inductive;
      n_cache_hits = a.n_cache_hits + b.n_cache_hits;
      n_cache_misses = a.n_cache_misses + b.n_cache_misses;
      total_time = a.total_time +. b.total_time;
    }

  let pct_undetermined t =
    if t.n_props = 0 then 0.
    else 100. *. float_of_int t.n_undetermined /. float_of_int t.n_props

  (* Rate over cache *lookups* (hits + misses), not over all properties:
     merging stats from a checker with no cache attached must not dilute
     the rate of the checkers that do have one.  For a single cached
     checker every property is a lookup, so the two denominators agree. *)
  let hit_rate t =
    let lookups = t.n_cache_hits + t.n_cache_misses in
    if lookups = 0 then 0. else float_of_int t.n_cache_hits /. float_of_int lookups

  let copy t = merge t (create ())

  let pp fmt t =
    Format.fprintf fmt
      "props=%d reachable=%d unreachable=%d undetermined=%d (%.2f%%) sim-discharged=%d inductive=%d cache-hits=%d cache-misses=%d mean-time=%.4fs"
      t.n_props t.n_reachable t.n_unreachable t.n_undetermined (pct_undetermined t)
      t.n_sim_discharged t.n_inductive t.n_cache_hits t.n_cache_misses
      (mean_time t)
end

type sweep_mode = Sweep_off | Sweep_on | Sweep_audit

let sweep_mode_tag = function
  | Sweep_off -> "off"
  | Sweep_on -> "on"
  | Sweep_audit -> "audit"

type config = {
  bmc_depth : int;  (* maximum unrolling depth *)
  bmc_conflicts : int;  (* SAT conflict budget per BMC solve *)
  induction_max_k : int;  (* 0 disables k-induction *)
  induction_conflicts : int;
  sim_episodes : int;  (* 0 disables the simulation pre-pass *)
  sim_cycles : int;
  seed : int;
  known_bits : bool;  (* known-bits substitution: BMC + induction strengthening *)
  sweep : sweep_mode;  (* SAT-sweep the netlist the engines encode *)
}

let default_config =
  {
    bmc_depth = 24;
    bmc_conflicts = 200_000;
    induction_max_k = 3;
    induction_conflicts = 50_000;
    sim_episodes = 24;
    sim_cycles = 32;
    seed = 1;
    known_bits = true;
    sweep = Sweep_off;
  }

(* The engine's one k-induction unrolling, shared by every cover.  Frame 0
   pins the assumes unconditionally, as a fresh unrolling would.  Frame
   j >= 1 exists only under its gate ([gates], frame order): the gate
   guards the frame's assumes and its simple-path constraints against
   frames 0..j-1.  A query at k assumes the gates of frames 1..k, so the
   frames an earlier cover grew beyond k are bare Tseitin definitions that
   constrain nothing, and the query sees exactly the formula a fresh
   (k+1)-frame unrolling would. *)
type induction = {
  ind : Blast.t;
  ind_assumes : Netlist.signal list;  (* encoded-netlist signals *)
  mutable gates : Solver.lit list;
}

(* One SAT engine stack over the netlist it encodes (original, or the swept
   reduction): the total original->encoded signal map, the shared BMC
   unrolling and the shared induction unrolling.  Both unrollings
   substitute the same known-bits invariants (strengthening) when the
   config flag is on.  Audit mode instantiates two engines. *)
type engine = {
  map : Netlist.signal array;
  bmc : Blast.t;
  induction : induction Lazy.t;
      (* Built on the first induction attempt, so a run whose covers all
         hit the cache never builds it. *)
}

type t = {
  nl : Netlist.t;
  config : config;
  assumes : Netlist.signal list;
  stimulus : (Sim.t -> int -> unit) option;
  sim : Sim.t Lazy.t;
      (* The pre-pass's one simulator, reset per episode; compiled on the
         first episode, so a run whose covers all hit the cache never
         compiles it. *)
  eng : engine Lazy.t;
      (* Swept when config.sweep is on/audit.  Built on the first cover that
         reaches the SAT phases, so a run whose covers all hit the cache
         (or that the sim pre-pass decides) never sweeps, computes known
         bits or blasts. *)
  shadow : engine Lazy.t option;  (* unswept cross-check engine (audit mode) *)
  stats : Stats.t;
  named : (string * Netlist.signal) list;
  rng : Random.State.t;
  cache : Vcache.t option;
  key_prefix : string;  (* "" when no cache is attached *)
}

(* The cache key covers everything a verdict depends on: the elaborated
   netlist structure, the assumption signals, every budget/seed field of
   the config, and a caller salt (for inputs the checker cannot see, e.g.
   Flow's imprecise IFT cell rules).  The per-property key then appends
   the cover literals — see [cover_key]. *)
(* [known_bits] is part of the key: it changes the solver trajectory and
   hence which engine decides a verdict.  [sweep] participates as its
   effective boolean — audit mode computes bit-identically to on (the
   unswept shadow run is a tripwire, not an input).  The pattern binds
   every field with no [; _], so a field added to [config] without a
   place in the key is a build error (warning 9). *)
let config_key
    {
      bmc_depth;
      bmc_conflicts;
      induction_max_k;
      induction_conflicts;
      sim_episodes;
      sim_cycles;
      seed;
      known_bits;
      sweep;
    } =
  Printf.sprintf "c:%d.%d.%d.%d.%d.%d.%d|e:%b|w:%b" bmc_depth bmc_conflicts
    induction_max_k induction_conflicts sim_episodes sim_cycles seed known_bits
    (sweep <> Sweep_off)

(* The empty [i:] field held initial-state-only assumptions, which no
   caller had; it stays so that stored keys keep their bytes. *)
let make_key_prefix ~salt ~assumes ~(config : config) nl =
  Printf.sprintf "%s|a:%s|i:|%s|s:%s" (Netlist.digest nl)
    (String.concat "," (List.map string_of_int assumes))
    (config_key config) salt

let identity_map nl = Array.init (Netlist.num_nodes nl) Fun.id

let make_engine ~(config : config) ~assumes ~sweep_barriers ~swept nl =
  let enc_nl, map =
    if swept then begin
      let red, image, st = Hdl.Equiv.reduce ~barriers:sweep_barriers nl in
      if Obs.enabled () then begin
        Obs.Metrics.incr "equiv.merged" ~by:st.Hdl.Equiv.merged;
        Obs.Metrics.incr "equiv.comb_nodes" ~by:st.Hdl.Equiv.comb_nodes;
        Obs.Metrics.incr "equiv.classes" ~by:st.Hdl.Equiv.classes;
        Obs.Metrics.incr "equiv.vetoed" ~by:st.Hdl.Equiv.vetoed;
        Obs.Metrics.incr "equiv.sat_queries" ~by:st.Hdl.Equiv.sat_queries;
        Obs.Metrics.incr "equiv.patterns" ~by:st.Hdl.Equiv.patterns
      end;
      (red, image)
    end
    else (nl, identity_map nl)
  in
  let tr l = List.map (fun s -> map.(s)) l in
  let enc_assumes = tr assumes in
  let known =
    if config.known_bits then Some (Hdl.Absint.known_bits enc_nl) else None
  in
  let bmc =
    Blast.create ?known ~initial:`Reset ~assumes:enc_assumes enc_nl
  in
  let induction =
    lazy
      (let ind =
         Blast.create ?known ~initial:`Free ~assumes:[] enc_nl
       in
       List.iter
         (fun a -> Solver.add_clause (Blast.solver ind) [ Blast.lit1 ind a ~time:0 ])
         enc_assumes;
       { ind; ind_assumes = enc_assumes; gates = [] })
  in
  { map; bmc; induction }

let create ?cache ?(cache_salt = "") ?stimulus ?(config = default_config)
    ?(sweep_barriers = []) ~assumes nl =
  if config.bmc_depth < 0 then invalid_arg "Checker.create: negative bmc_depth";
  Netlist.validate nl;
  let named =
    Netlist.fold_nodes nl ~init:[] ~f:(fun acc n ->
        match n.Netlist.name with
        | Some name -> (name, n.Netlist.id) :: acc
        | None -> acc)
    |> List.rev
  in
  let swept = config.sweep <> Sweep_off in
  let eng = lazy (make_engine ~config ~assumes ~sweep_barriers ~swept nl) in
  let shadow =
    if config.sweep = Sweep_audit then
      Some (lazy (make_engine ~config ~assumes ~sweep_barriers ~swept:false nl))
    else None
  in
  {
    nl;
    config;
    assumes;
    stimulus;
    sim = lazy (Sim.create nl);
    eng;
    shadow;
    stats = Stats.create ();
    named;
    rng = Random.State.make [| config.seed |];
    cache;
    key_prefix =
      (match cache with
      | None -> ""
      | Some _ ->
        make_key_prefix ~salt:cache_salt ~assumes ~config nl);
  }

let stats t = t.stats
let netlist t = t.nl

let cex_of_model t eng ~upto =
  let values =
    List.map
      (fun (name, s) ->
        ( name,
          Array.init (upto + 1) (fun time ->
              Blast.model_value eng.bmc eng.map.(s) ~time) ))
      t.named
  in
  { Cex.length = upto + 1; values }

(* --- simulation pre-pass ------------------------------------------------ *)

(* Drive one random episode; return the cycle where [cover] held, if any.
   Aborts (returns None) as soon as an assumption is violated, which keeps
   the pre-pass sound: only assumption-respecting traces can witness. *)
let cover_holds sim cover =
  List.for_all (fun (s, pol) -> Sim.peek_bool sim s = pol) cover

(* Drive one random episode, recording named signals as it goes; return the
   recorded witness if the cover fired.  Aborts as soon as an assumption is
   violated, which keeps the pre-pass sound: only assumption-respecting
   traces can witness.  Always runs on the original netlist — the pre-pass
   is identical whatever the sweep mode. *)
let sim_episode t cover seed =
  let sim = Lazy.force t.sim in
  Sim.reset ~seed sim;
  let rows = ref [] in
  let ok = ref true in
  let hit = ref None in
  let c = ref 0 in
  while !ok && !hit = None && !c < t.config.sim_cycles do
    (match t.stimulus with
    | Some f -> f sim !c
    | None -> Sim.poke_random_inputs sim);
    Sim.eval sim;
    if not (List.for_all (fun a -> Sim.peek_bool sim a) t.assumes) then ok := false
    else begin
      rows := List.map (fun (_, s) -> Sim.peek sim s) t.named :: !rows;
      if cover_holds sim cover then hit := Some !c;
      Sim.step sim;
      incr c
    end
  done;
  match !hit with
  | None -> None
  | Some upto ->
    let rows = Array.of_list (List.rev !rows) in
    let values =
      List.mapi
        (fun i (name, _) -> (name, Array.init (upto + 1) (fun c_ -> List.nth rows.(c_) i)))
        t.named
    in
    Some { Cex.length = upto + 1; values }

(* Also reports how many seeds were drawn from [t.rng]: a cache hit must
   replay exactly that many draws (see [check_cover]) so the RNG stream
   seen by later properties is independent of which verdicts were cached. *)
let try_simulation t cover =
  let rec go ep =
    if ep >= t.config.sim_episodes then (None, ep)
    else
      let seed = Random.State.int t.rng 0x3FFFFFFF in
      match sim_episode t cover seed with
      | Some cex -> (Some cex, ep + 1)
      | None -> go (ep + 1)
  in
  go 0

(* --- k-induction --------------------------------------------------------- *)

(* Grow the shared induction unrolling to frames 0..k.  A new frame j gets
   a fresh gate literal guarding its assumes and its simple-path
   constraints against frames 0..j-1. *)
let extend_induction u k =
  let s = Blast.solver u.ind in
  while Blast.depth u.ind <= k do
    let j = Blast.depth u.ind in
    Blast.ensure_depth u.ind j;
    let g = Solver.pos (Solver.new_var s) in
    List.iter
      (fun a -> Solver.add_clause s [ Solver.negate g; Blast.lit1 u.ind a ~time:j ])
      u.ind_assumes;
    for i = 0 to j - 1 do
      Blast.add_state_distinct ~gate:g u.ind i j
    done;
    u.gates <- u.gates @ [ g ]
  done

(* The engine's induction solver, if an attempt has built it. *)
let induction_solver eng =
  if Lazy.is_val eng.induction then Some (Blast.solver (Lazy.force eng.induction).ind)
  else None

(* Prove [cover] unreachable by k-induction with simple-path constraints, on
   the engine's shared free-state unrolling.  The query at k assumes the
   gates of frames 1..k and cover@k.  The hypotheses not-bad@0..k-1 are this
   cover's own, so they hang on an activation literal that a unit clause
   retires after the attempt, as BMC retires its activations.  A solve that
   overruns [induction_conflicts] ends the attempt and counts in
   [checker.ind_overruns]: on the shared solver, whether it overruns also
   depends on what earlier covers' solves left behind. *)
let try_induction t eng cover =
  if t.config.induction_max_k = 0 then None
  else begin
    let vars0 =
      match induction_solver eng with Some s -> Solver.nvars s | None -> 0
    in
    let u = Lazy.force eng.induction in
    let s = Blast.solver u.ind in
    let lits_at time =
      List.map
        (fun (sig_, pol) ->
          let l = Blast.lit1 u.ind eng.map.(sig_) ~time in
          if pol then l else Solver.negate l)
        cover
    in
    let act = Solver.pos (Solver.new_var s) in
    let rec go k =
      if k > t.config.induction_max_k then None
      else begin
        extend_induction u k;
        if k >= 1 then
          Solver.add_clause s
            (Solver.negate act :: List.map Solver.negate (lits_at (k - 1)));
        let gates = List.filteri (fun i _ -> i < k) u.gates in
        let r =
          Solver.solve
            ~assumptions:((act :: gates) @ lits_at k)
            ~max_conflicts:t.config.induction_conflicts s
        in
        if Obs.enabled () then
          Obs.Metrics.incr "checker.ind_overruns"
            ~by:(if r = Solver.Unknown then 1 else 0);
        match r with
        | Solver.Unsat -> Some k
        | Solver.Sat -> go (k + 1)
        | Solver.Unknown -> None
      end
    in
    let r = go 0 in
    Solver.add_clause s [ Solver.negate act ];
    if Obs.enabled () then
      Obs.Metrics.incr "sat.ind_vars" ~by:(Solver.nvars s - vars0);
    r
  end

(* --- canonical witnesses -------------------------------------------------- *)

(* After a Sat BMC query, the raw model is an artifact of the encoding and
   the solver's trajectory: the swept and unswept CNFs are equisatisfiable
   over the design's free variables but return different models.  The
   reported witness is therefore canonicalized:

   1. minimal hit time — the earliest per-time gate that is satisfiable;
   2. lexicographically minimal free variables (symbolic-init register
      bits at time 0, then primary-input bits per time), in a fixed
      time-major, id-major, LSB-first order, preferring 0 — found by
      galloping over incremental solves under a growing assumption list:
      bits the current model has at 0 are fixed without a solve, and at a
      bit the model has at 1 one solve tries to zero a whole block, whose
      length doubles after a success and halves after a failure;
   3. one final solve under the full assumption list, whose model is read.

   The result depends only on the design's semantics (and the budgets),
   so report digests agree across sweep modes, cache warmth and
   equivalent netlist variants.  A budget overrun degrades to best effort
   (a hit time is skipped, or a bit keeps its model value 1) and counts in
   [checker.canon_overruns]; the audit tripwire is the backstop. *)
let canonical_witness t eng ~gates ~default_upto =
  let s = Blast.solver eng.bmc in
  let budget = t.config.bmc_conflicts in
  let solve ?max_conflicts assumptions =
    let r = Solver.solve ~assumptions ?max_conflicts s in
    if Obs.enabled () then begin
      Obs.Metrics.incr "checker.canon_solves";
      Obs.Metrics.incr "checker.canon_overruns"
        ~by:(if r = Solver.Unknown then 1 else 0)
    end;
    r
  in
  let model_upto =
    match List.find_opt (fun (_, g) -> Solver.lit_value s g) gates with
    | Some (time, _) -> time
    | None -> default_upto
  in
  let gate_at time = List.assoc time gates in
  (* 1. Minimal hit time: scan upward; a budget overrun counts as a miss
     (best effort — never unsound, the gate implies the cover). *)
  let rec scan time =
    if time >= model_upto then model_upto
    else
      match solve ~max_conflicts:budget [ gate_at time ] with
      | Solver.Sat -> time
      | Solver.Unsat | Solver.Unknown -> scan (time + 1)
  in
  let upto = scan 0 in
  (* Re-establish a model for the chosen time (scan may have ended on an
     Unsat step or skipped solving entirely). *)
  (match solve ~max_conflicts:budget [ gate_at upto ] with
  | Solver.Sat -> ()
  | _ -> failwith "Checker: canonical witness lost the satisfying model");
  (* 2. The free variables, in canonical order. *)
  let free =
    let sym_regs =
      List.filter
        (fun r ->
          match (Netlist.node t.nl r).Netlist.kind with
          | Netlist.Reg { init = Netlist.Init_symbolic; _ } -> true
          | _ -> false)
        (Netlist.registers t.nl)
    in
    let reg_bits =
      List.concat_map
        (fun r -> Array.to_list (Blast.lits eng.bmc eng.map.(r) ~time:0))
        sym_regs
    in
    let input_bits =
      List.concat_map
        (fun time ->
          List.concat_map
            (fun i -> Array.to_list (Blast.lits eng.bmc eng.map.(i) ~time))
            (Netlist.inputs t.nl))
        (List.init (upto + 1) Fun.id)
    in
    Array.of_list (reg_bits @ input_bits)
  in
  let nfree = Array.length free in
  let model = Array.map (fun l -> Solver.lit_value s l) free in
  let capture from =
    for j = from to nfree - 1 do
      model.(j) <- Solver.lit_value s free.(j)
    done
  in
  (* [model] always satisfies [fixed]: every fixed bit keeps its model
     value, and a Sat block solve re-captures the model. *)
  let fixed = ref [ gate_at upto ] in
  let fix l = fixed := l :: !fixed in
  let rec gallop i len =
    if i < nfree then
      if not model.(i) then begin
        fix (Solver.negate free.(i));
        gallop (i + 1) len
      end
      else
        let n = min len (nfree - i) in
        let block = List.init n (fun d -> Solver.negate free.(i + d)) in
        match solve ~max_conflicts:budget (block @ !fixed) with
        | Solver.Sat ->
          capture i;
          List.iter fix block;
          gallop (i + n) (2 * len)
        | Solver.Unsat | Solver.Unknown ->
          if n > 1 then gallop i (n / 2)
          else begin
            fix free.(i);
            gallop (i + 1) 1
          end
  in
  gallop 0 1;
  (* 3. Final model under the full pin-down; the free variables are fully
     assigned, so this is satisfiable by construction. *)
  (match solve !fixed with
  | Solver.Sat -> ()
  | _ -> failwith "Checker: canonical witness pin-down unsatisfiable");
  upto

(* --- verdict cache entries ---------------------------------------------- *)

(* What a warm run needs to be indistinguishable from the cold one: the
   outcome itself (witness traces included, so harvesting replays), whether
   the sim pre-pass discharged it (stats fidelity), and how many RNG draws
   the pre-pass consumed (stream fidelity for subsequent properties). *)
type cache_entry = { ce_outcome : outcome; ce_sim : bool; ce_draws : int }

(* '\002': canonical witnesses changed which model a Sat BMC query
   reports, so entries written by older binaries must miss. *)
let codec_version = '\002'

let encode_entry (e : cache_entry) =
  Printf.sprintf "%c%s" codec_version (Marshal.to_string e [])

let decode_entry blob =
  if String.length blob < 1 || blob.[0] <> codec_version then None
  else
    match (Marshal.from_string blob 1 : cache_entry) with
    | e -> Some e
    | exception _ -> None

let cover_key t cover =
  let lit (s, pol) = string_of_int s ^ if pol then "+" else "-" in
  let lits = List.map lit cover in
  Digest.to_hex (Digest.string (t.key_prefix ^ "|p:" ^ String.concat "," lits))

(* --- main entry ----------------------------------------------------------- *)

let debug =
  match Sys.getenv_opt "CHECKER_DEBUG" with Some ("1" | "true") -> true | _ -> false

(* SAT phases (induction, then single-shot BMC) on one engine.  The sim
   pre-pass has already run (shared across engines). *)
let compute_sat t eng cover =
  (* k-induction: a genuine unreachability proof, attempted first
     because it is far cheaper than a deep UNSAT BMC sweep.  The step
     proof alone is unsound without its base case (the cover could hold
     within the first k steps from reset — e.g. via symbolic initial
     state), so verify the base with a small BMC before concluding. *)
  let base_holds k =
    (* no cover at times 0..k-1 from the reset state *)
    k = 0
    ||
    (Blast.ensure_depth eng.bmc (k - 1);
     let s = Blast.solver eng.bmc in
     let act = Solver.pos (Solver.new_var s) in
     let gates =
       List.init k (fun time ->
           let g = Solver.pos (Solver.new_var s) in
           List.iter
             (fun (sig_, pol) ->
               let l = Blast.lit1 eng.bmc eng.map.(sig_) ~time in
               let l = if pol then l else Solver.negate l in
               Solver.add_clause s [ Solver.negate g; l ])
             cover;
           g)
     in
     Solver.add_clause s (Solver.negate act :: gates);
     let r = Solver.solve ~assumptions:[ act ] ~max_conflicts:t.config.bmc_conflicts s in
     Solver.add_clause s [ Solver.negate act ];
     r = Solver.Unsat)
  in
  match try_induction t eng cover with
  | Some k when base_holds k -> Unreachable (Inductive k)
  | _ -> (
    (* Single-shot BMC over all depths: one activation-gated
       disjunction OR_t cover@t; SAT yields a witness, UNSAT proves
       bounded unreachability in one solve. *)
    Blast.ensure_depth eng.bmc t.config.bmc_depth;
    let s = Blast.solver eng.bmc in
    let gates =
      List.init (t.config.bmc_depth + 1) (fun time ->
          let g = Solver.pos (Solver.new_var s) in
          List.iter
            (fun (sig_, pol) ->
              let l = Blast.lit1 eng.bmc eng.map.(sig_) ~time in
              let l = if pol then l else Solver.negate l in
              Solver.add_clause s [ Solver.negate g; l ])
            cover;
          (time, g))
    in
    let act = Solver.pos (Solver.new_var s) in
    Solver.add_clause s (Solver.negate act :: List.map snd gates);
    let result =
      Solver.solve ~assumptions:[ act ] ~max_conflicts:t.config.bmc_conflicts s
    in
    (* Retire this property's activation clause. *)
    Solver.add_clause s [ Solver.negate act ];
    match result with
    | Solver.Sat ->
      let upto =
        canonical_witness t eng ~gates ~default_upto:t.config.bmc_depth
      in
      Reachable (cex_of_model t eng ~upto)
    | Solver.Unsat -> Unreachable (Bounded t.config.bmc_depth)
    | Solver.Unknown -> Undetermined)

(* The engine pipeline proper: returns (outcome, discharged-by-sim, RNG
   draws consumed by the sim pre-pass).  In audit mode the SAT phases run
   twice — swept and unswept — and any verdict or witness divergence is a
   soundness bug in the sweep, so it trips a hard failure. *)
let compute_cover t cover =
  (* 1. simulation pre-pass (shared by both engines: it runs on the
     original netlist and consumes the RNG stream exactly once). *)
  let sim_result =
    if Obs.enabled () then
      Obs.with_span "checker.sim_prepass" (fun () -> try_simulation t cover)
    else try_simulation t cover
  in
  match sim_result with
  | Some cex, draws -> (Reachable cex, true, draws)
  | None, draws ->
    let outcome = compute_sat t (Lazy.force t.eng) cover in
    (match t.shadow with
    | None -> ()
    | Some shadow ->
      let unswept = compute_sat t (Lazy.force shadow) cover in
      let divergence =
        match (outcome, unswept) with
        | Reachable a, Reachable b ->
          if Cex.equal a b then None else Some "witness mismatch"
        | Unreachable _, Unreachable _ | Undetermined, Undetermined -> None
        | a, b ->
          Some
            (Printf.sprintf "verdict mismatch: swept=%s unswept=%s"
               (outcome_tag a) (outcome_tag b))
      in
      (match divergence with
      | Some what ->
        failwith
          (Printf.sprintf
             "Checker sweep audit: %s on %s — the equivalence sweep changed \
              an outcome"
             what (Netlist.name t.nl))
      | None -> ()));
    (outcome, false, draws)

(* The main engine, if a cover has built it. *)
let built_engine t = if Lazy.is_val t.eng then Some (Lazy.force t.eng) else None

let check_cover ?name t cover =
  let t0 = Obs.now_ns () in
  (* Snapshots for the per-property sat.* metrics: deltas over the shared
     BMC solver, and sat.ind_* deltas over the shared induction solver.
     This cover may be the first to build either; an engine not built yet
     counts as zeros, and one no cover has built is never read. *)
  let bmc_counts () =
    match built_engine t with
    | Some e ->
      let s = Blast.solver e.bmc in
      let h, l = Blast.cse_stats e.bmc in
      (Solver.num_conflicts s, Solver.num_propagations s, Solver.num_reduces s, h, l)
    | None -> (0, 0, 0, 0, 0)
  in
  let c0, p0, r0, h0, l0 = bmc_counts () in
  let ind_counts () =
    match Option.bind (built_engine t) induction_solver with
    | Some s -> (Solver.num_conflicts s, Solver.num_propagations s)
    | None -> (0, 0)
  in
  let ic0, ip0 = ind_counts () in
  let finish ~hit ~sim_discharged outcome =
    t.stats.Stats.n_props <- t.stats.Stats.n_props + 1;
    let elapsed = Obs.seconds_since t0 in
    t.stats.Stats.total_time <- t.stats.Stats.total_time +. elapsed;
    if sim_discharged then
      t.stats.Stats.n_sim_discharged <- t.stats.Stats.n_sim_discharged + 1;
    (match hit with
    | None -> ()
    | Some true -> t.stats.Stats.n_cache_hits <- t.stats.Stats.n_cache_hits + 1
    | Some false -> t.stats.Stats.n_cache_misses <- t.stats.Stats.n_cache_misses + 1);
    (match outcome with
    | Reachable _ -> t.stats.Stats.n_reachable <- t.stats.Stats.n_reachable + 1
    | Unreachable p ->
      t.stats.Stats.n_unreachable <- t.stats.Stats.n_unreachable + 1;
      (match p with
      | Inductive _ -> t.stats.Stats.n_inductive <- t.stats.Stats.n_inductive + 1
      | Bounded _ -> ())
    | Undetermined -> t.stats.Stats.n_undetermined <- t.stats.Stats.n_undetermined + 1);
    if Obs.enabled () then begin
      Obs.Metrics.incr "checker.props";
      Obs.Metrics.incr "checker.outcome" ~labels:[ ("tag", outcome_tag outcome) ];
      if sim_discharged then Obs.Metrics.incr "checker.sim_discharged";
      (match hit with
      | None -> ()
      | Some true -> Obs.Metrics.incr "cache.hits"
      | Some false -> Obs.Metrics.incr "cache.misses");
      Obs.Metrics.observe "checker.check_time_s" elapsed;
      let c, p, r, h, l = bmc_counts () in
      Obs.Metrics.observe "sat.conflicts" (float_of_int (c - c0));
      Obs.Metrics.observe "sat.propagations" (float_of_int (p - p0));
      let ic, ip = ind_counts () in
      Obs.Metrics.observe "sat.ind_conflicts" (float_of_int (ic - ic0));
      Obs.Metrics.observe "sat.ind_propagations" (float_of_int (ip - ip0));
      Option.iter
        (fun e ->
          let s = Blast.solver e.bmc in
          Obs.Metrics.gauge "sat.learnt_db" (float_of_int (Solver.num_learnts s));
          Obs.Metrics.gauge "sat.learnt_peak" (float_of_int (Solver.learnt_peak s));
          Obs.Metrics.gauge "sat.vars" (float_of_int (Solver.nvars s)))
        (built_engine t);
      Obs.Metrics.incr "sat.reduce_events" ~by:(r - r0);
      Obs.Metrics.incr "sat.cse_hits" ~by:(h - h0);
      Obs.Metrics.incr "sat.cse_lookups" ~by:(l - l0)
    end;
    if debug then
      Printf.eprintf "[checker] %-12s %-24s %.2fs%s\n%!"
        (Option.value name ~default:"?") (outcome_tag outcome) elapsed
        (if hit = Some true then " (cached)" else "");
    outcome
  in
  List.iter
    (fun (s, _) ->
      if Netlist.width t.nl s <> 1 then
        invalid_arg "Checker.check_cover: cover literals must be 1 bit")
    cover;
  let dispatch () =
    match t.cache with
    | None ->
      let outcome, sim_discharged, _draws = compute_cover t cover in
      finish ~hit:None ~sim_discharged outcome
    | Some cache -> (
      let key = cover_key t cover in
      (* Audit mode never *serves* from the cache — the point is to run
         both engines and compare — but it still stores, so an audited
         cold run warms the cache for subsequent on-mode runs. *)
      let cached =
        if t.config.sweep = Sweep_audit then None
        else Option.bind (Vcache.find cache key) decode_entry
      in
      match cached with
      | Some e ->
        (* Replay the RNG draws the cold run's sim pre-pass consumed, so the
           stream later properties see is the same whether or not this
           verdict came from the cache. *)
        for _ = 1 to e.ce_draws do
          ignore (Random.State.int t.rng 0x3FFFFFFF)
        done;
        finish ~hit:(Some true) ~sim_discharged:e.ce_sim e.ce_outcome
      | None ->
        let outcome, sim_discharged, draws = compute_cover t cover in
        Vcache.add cache key
          (encode_entry
             { ce_outcome = outcome; ce_sim = sim_discharged; ce_draws = draws });
        finish ~hit:(Some false) ~sim_discharged outcome)
  in
  if Obs.enabled () then
    Obs.with_span "checker.check_cover"
      ~args:(match name with Some n -> [ ("prop", n) ] | None -> [])
      dispatch
  else dispatch ()
