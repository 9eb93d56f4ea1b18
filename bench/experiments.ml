(* Experiment harness regenerating every table and figure of the paper's
   evaluation (the E1..E13 index of DESIGN.md).  Absolute numbers differ —
   the substrate is a downscaled simulator, not the authors' JasperGold
   testbed — but each experiment asserts the paper's qualitative shape
   (who exhibits variability, which channels exist, where the crossovers
   are) and prints the regenerated rows/series. *)

module Meta = Designs.Meta
module Checker = Mc.Checker

let profile =
  match Sys.getenv_opt "REPRO_PROFILE" with
  | Some "full" -> `Full
  | _ -> `Quick

let config =
  match profile with
  | `Quick ->
    {
      Checker.default_config with
      Checker.bmc_depth = 12;
      bmc_conflicts = 60_000;
      induction_max_k = 2;
      sim_episodes = 12;
      sim_cycles = 44;
    }
  | `Full ->
    {
      Checker.default_config with
      Checker.bmc_depth = 16;
      bmc_conflicts = 150_000;
      induction_max_k = 3;
      sim_episodes = 24;
      sim_cycles = 52;
    }

let cache_config = { config with Checker.bmc_depth = 14 }

let section id title =
  Printf.printf "\n=======================================================\n";
  Printf.printf "%s: %s\n" id title;
  Printf.printf "=======================================================\n%!"

(* Shape checks that failed so far; a nonzero count makes the harness
   exit 1. *)
let mismatches = ref 0

let check name cond =
  if not cond then incr mismatches;
  Printf.printf "  [%s] %s\n%!" (if cond then "ok" else "SHAPE-MISMATCH") name

(* Accumulated statistics for E11. *)
type stat_bucket = {
  mutable props : int;
  mutable undetermined : int;
  mutable sim_discharged : int;
  mutable inductive : int;
  mutable time : float;
}

let core_stats = { props = 0; undetermined = 0; sim_discharged = 0; inductive = 0; time = 0. }
let cache_stats = { props = 0; undetermined = 0; sim_discharged = 0; inductive = 0; time = 0. }

let record bucket (s : Checker.Stats.t) =
  bucket.props <- bucket.props + s.Checker.Stats.n_props;
  bucket.undetermined <- bucket.undetermined + s.Checker.Stats.n_undetermined;
  bucket.sim_discharged <- bucket.sim_discharged + s.Checker.Stats.n_sim_discharged;
  bucket.inductive <- bucket.inductive + s.Checker.Stats.n_inductive;
  bucket.time <- bucket.time +. s.Checker.Stats.total_time

let run_mupath ?(cfg = Designs.Core.baseline) ?(counts = []) ?(pins = []) iuv =
  let meta = Designs.Core.build cfg in
  let stim =
    Designs.Stimulus.core ~pins:((Designs.Core.iuv_pc, iuv) :: pins) meta
  in
  let r =
    Mupath.Synth.run ~config ~stimulus:stim ~revisit_count_labels:counts ~meta
      ~iuv ~iuv_pc:Designs.Core.iuv_pc ()
  in
  record core_stats r.Mupath.Synth.checker_stats;
  r

let run_cache_mupath ?(counts = []) iuv =
  let meta = Designs.Cache.build () in
  let stim = Designs.Stimulus.cache ~pins:[ (Designs.Cache.iuv_pc, iuv) ] meta in
  let r =
    Mupath.Synth.run ~config:cache_config ~stimulus:stim
      ~revisit_count_labels:counts ~meta ~iuv ~iuv_pc:Designs.Cache.iuv_pc ()
  in
  record cache_stats r.Mupath.Synth.checker_stats;
  r

let print_paths (r : Mupath.Synth.result) =
  Format.printf "%a@." Mupath.Synth.pp_result r

let has_pl lbl (p : Mupath.Synth.path) = List.mem_assoc lbl p.Mupath.Synth.pl_set

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1: MUL µPATHs on CVA6-MUL                                  *)
(* ------------------------------------------------------------------ *)
let e1 () =
  section "E1" "Fig. 1 - zero-skip MUL uPATHs on CVA6-MUL";
  let iuv = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.MUL in
  let r = run_mupath ~cfg:Designs.Core.cva6_mul ~counts:[ "mulU" ] iuv in
  print_paths r;
  let counts = List.assoc "mulU" r.Mupath.Synth.revisit_counts in
  Printf.printf "mulU occupancy classes: {%s}  (paper: 1 vs 4 cycles)\n"
    (String.concat "," (List.map string_of_int counts));
  check "MUL has a 1-cycle (zero-skip) mulU class" (List.mem 1 counts);
  check "MUL has a 4-cycle mulU class" (List.mem 4 counts);
  check "exactly two mulU occupancy classes" (List.length counts = 2);
  check "mulU consecutively occupied in some uPATH"
    (List.exists
       (fun p ->
         match List.assoc_opt "mulU" p.Mupath.Synth.pl_set with
         | Some (Mupath.Synth.Consecutive | Mupath.Synth.Both) -> true
         | _ -> false)
       r.Mupath.Synth.paths)

(* ------------------------------------------------------------------ *)
(* E2 — Fig. 2: operand-packing ADD µPATHs on CVA6-OP                   *)
(* ------------------------------------------------------------------ *)
let e2 () =
  section "E2" "Fig. 2 - packed vs non-packed ADD on CVA6-OP";
  let iuv = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD in
  let r = run_mupath ~cfg:Designs.Core.cva6_op ~counts:[ "ID" ] iuv in
  print_paths r;
  let id_counts = List.assoc "ID" r.Mupath.Synth.revisit_counts in
  Printf.printf "ID residency classes: {%s}  (paper: 1 packed vs 2 non-packed)\n"
    (String.concat "," (List.map string_of_int id_counts));
  check "1-cycle ID residency (packed or head-of-pair)" (List.mem 1 id_counts);
  check "2-cycle ID residency (non-packed younger)" (List.mem 2 id_counts);
  let a_dsts =
    Option.value (List.assoc_opt "ID" r.Mupath.Synth.decisions) ~default:[]
  in
  check "decision (ID, {ID}) - stall in decode" (List.mem [ "ID" ] a_dsts);
  check "decision (ID, {issue, scbIss}) - dispatch"
    (List.exists (fun d -> List.mem "issue" d && List.mem "scbIss" d) a_dsts)

(* ------------------------------------------------------------------ *)
(* E3 — Fig. 4a/4b: BEQ and LD µPATHs on the core                       *)
(* ------------------------------------------------------------------ *)
let e3 () =
  section "E3" "Fig. 4a/4b - BEQ and LW uPATHs on CVA6-lite";
  let beq = Isa.make ~rs1:1 ~rs2:2 ~imm:8 Isa.BEQ in
  let r = run_mupath beq in
  print_paths r;
  check "BEQ has multiple uPATHs (taken/not-taken contexts)"
    (List.length r.Mupath.Synth.paths >= 2);
  (* This BEQ's pinned immediate (8) yields an aligned target, so the
     misaligned-target exception path must be absent; E10 model-checks the
     misaligned (imm = 2) encoding against scbExcp on both design variants. *)
  check "aligned-target BEQ never reaches scbExcp"
    (not (List.exists (has_pl "scbExcp") r.Mupath.Synth.paths));
  let lw = Isa.make ~rd:3 ~rs1:2 Isa.LW in
  let r =
    run_mupath ~pins:[ (Designs.Core.iuv_pc - 1, Isa.make ~rs1:1 ~rs2:3 Isa.SW) ] lw
  in
  print_paths r;
  let stall = List.filter (has_pl "ldStall") r.Mupath.Synth.paths in
  let fast =
    List.filter (fun p -> not (has_pl "ldStall" p)) r.Mupath.Synth.paths
  in
  check "LW stall uPATH (page-offset match, SS IV-A)" (stall <> []);
  check "LW stall-free uPATH" (fast <> []);
  check "stall uPATH visits LSQ too" (List.exists (has_pl "LSQ") stall);
  let issue_dsts =
    Option.value (List.assoc_opt "issue" r.Mupath.Synth.decisions) ~default:[]
  in
  check "LD decision at issue has >= 2 destinations" (List.length issue_dsts >= 2)

(* ------------------------------------------------------------------ *)
(* E4 — Fig. 4c: ST µPATHs on the cache DUV                             *)
(* ------------------------------------------------------------------ *)
let e4 () =
  section "E4" "Fig. 4c - SW uPATHs on the cache DUV";
  let sw = Isa.make Isa.SW in
  let r = run_cache_mupath sw in
  print_paths r;
  check "hit path writes a data bank (wrD0/wrD1)"
    (List.exists (fun p -> has_pl "wrD0" p || has_pl "wrD1" p) r.Mupath.Synth.paths);
  check "miss path goes write-through (wrMiss + axiRq)"
    (List.exists (fun p -> has_pl "wrMiss" p && has_pl "axiRq" p) r.Mupath.Synth.paths);
  check "the two banks appear in different uPATHs (wr$[way/2], Fig. 5)"
    (List.exists (has_pl "wrD0") r.Mupath.Synth.paths
    && List.exists (has_pl "wrD1") r.Mupath.Synth.paths);
  let lw = Isa.make Isa.LW in
  let r = run_cache_mupath lw in
  print_paths r;
  check "LW hit path (rdTag -> rdData, no MSHR)"
    (List.exists
       (fun p -> has_pl "rdData" p && not (has_pl "MSHR" p))
       r.Mupath.Synth.paths);
  check "LW miss path allocates the MSHR and refills"
    (List.exists
       (fun p -> has_pl "MSHR" p && has_pl "fill" p)
       r.Mupath.Synth.paths)

(* ------------------------------------------------------------------ *)
(* E5 — Fig. 5: leakage functions (LD_issue and the new ST_comSTB)      *)
(* ------------------------------------------------------------------ *)
let flow_on_core ?(precise = true) ~transponder ~decisions ~transmitters ~kind
    ~operand () =
  let pc_t = Synthlc.Flow.transmitter_pc ~iuv_pc:Designs.Core.iuv_pc kind in
  let tx_candidates =
    List.concat_map
      (fun o -> [ Isa.make ~rd:1 ~rs1:2 ~rs2:3 o; Isa.make ~rd:3 ~rs1:1 ~rs2:2 ~imm:4 o ])
      transmitters
  in
  let stimulus =
    Designs.Stimulus.core
      ~pins:[ (Designs.Core.iuv_pc, transponder) ]
      ~rotate:[ (pc_t, tx_candidates) ]
  in
  Synthlc.Flow.analyze ~config ~stimulus ~precise
    ~meta:(Designs.Core.build Designs.Core.baseline) ~transponder
    ~decisions ~transmitters ~kind ~operand ~iuv_pc:Designs.Core.iuv_pc ()

let e5 () =
  section "E5" "Fig. 5 - leakage functions: LD_issue and the new ST_comSTB channel";
  (* LD_issue: a load's issue decision leaks an older store's rs1. *)
  let lw = Isa.make ~rd:3 ~rs1:2 Isa.LW in
  let r =
    run_mupath ~pins:[ (Designs.Core.iuv_pc - 1, Isa.make ~rs1:1 ~rs2:3 Isa.SW) ] lw
  in
  let decisions =
    List.filter (fun (_, ds) -> List.length ds > 1) r.Mupath.Synth.decisions
  in
  let a =
    flow_on_core ~transponder:lw ~decisions ~transmitters:[ Isa.SW ]
      ~kind:Synthlc.Types.Dynamic_older ~operand:Synthlc.Types.Rs1 ()
  in
  let ld_issue_tags =
    List.filter (fun (d : Synthlc.Types.tagged_decision) -> d.Synthlc.Types.src = "issue") a.Synthlc.Flow.tagged
  in
  Printf.printf "LD_issue: %d issue-decisions depend on an older SW's rs1\n"
    (List.length ld_issue_tags);
  List.iter
    (fun (d : Synthlc.Types.tagged_decision) ->
      Printf.printf "  dst LD_issue(LW^N, SW^D<.rs1) -> {%s}\n"
        (String.concat ", " d.Synthlc.Types.dst))
    ld_issue_tags;
  check "LD_issue leaks the older store's address operand (SS IV-A)"
    (List.length ld_issue_tags >= 2);
  let sigs =
    Synthlc.Engine.signatures_of_tagged lw r.Mupath.Synth.decisions a.Synthlc.Flow.tagged
  in
  List.iter (fun s -> Format.printf "%a@." Synthlc.Types.pp_signature s) sigs;

  (* ST_comSTB: a committed store's drain decision leaks a younger load's
     rs1 — the channel SS VII-A1 is first to report. *)
  let sw = Isa.make ~rs1:1 ~rs2:3 Isa.SW in
  let r =
    run_mupath ~pins:[ (Designs.Core.iuv_pc + 1, Isa.make ~rd:3 ~rs1:2 Isa.LW) ] sw
  in
  let decisions =
    List.filter (fun (_, ds) -> List.length ds > 1) r.Mupath.Synth.decisions
  in
  check "SW exhibits a comSTB decision"
    (List.mem_assoc "comSTB" decisions);
  let a =
    flow_on_core ~transponder:sw ~decisions ~transmitters:[ Isa.LW ]
      ~kind:Synthlc.Types.Dynamic_younger ~operand:Synthlc.Types.Rs1 ()
  in
  let st_comstb_tags =
    List.filter (fun (d : Synthlc.Types.tagged_decision) -> d.Synthlc.Types.src = "comSTB") a.Synthlc.Flow.tagged
  in
  Printf.printf "ST_comSTB: %d comSTB-decisions depend on a younger LW's rs1\n"
    (List.length st_comstb_tags);
  List.iter
    (fun (d : Synthlc.Types.tagged_decision) ->
      Printf.printf "  dst ST_comSTB(SW^N, LW^D>.rs1) -> {%s}\n"
        (String.concat ", " d.Synthlc.Types.dst))
    st_comstb_tags;
  check
    "NEW CHANNEL (SS VII-A1): committed store's drain leaks a younger load's address"
    (List.length st_comstb_tags >= 2)

(* ------------------------------------------------------------------ *)
(* E10 — §VII-B2 bugs: model-checked evidence                           *)
(* ------------------------------------------------------------------ *)
let scbexcp_reachable cfg iuv =
  let meta = Designs.Core.build cfg in
  let stim = Designs.Stimulus.core ~pins:[ (Designs.Core.iuv_pc, iuv) ] meta in
  let h =
    Mupath.Harness.create ~config ~stimulus:stim ~meta ~iuv
      ~iuv_pc:Designs.Core.iuv_pc ()
  in
  let chk = Mupath.Harness.checker h in
  let o = Checker.check_cover ~name:"scbExcp" chk [ (Mupath.Harness.occ_iuv h "scbExcp", true) ] in
  record core_stats (Checker.stats chk);
  match o with Checker.Reachable _ -> true | _ -> false

let e10 () =
  section "E10" "SS VII-B2 - the CVA6 bugs, found the paper's way";
  (* The paper: "RTL2MuPATH finds that following scbFin, JALR never
     progresses to scbExcp, while JAL and branches sometimes do." *)
  let jalr = Isa.make ~rd:1 ~rs1:2 Isa.JALR in
  let jal1 = Isa.make ~rd:1 ~imm:1 Isa.JAL in (* 1-byte misaligned target *)
  let jal2 = Isa.make ~rd:1 ~imm:2 Isa.JAL in (* 2-byte-aligned, 4-byte-misaligned *)
  let beq = Isa.make ~rs1:1 ~rs2:2 ~imm:2 Isa.BEQ in
  let b_jalr = scbexcp_reachable Designs.Core.baseline jalr in
  let b_jal1 = scbexcp_reachable Designs.Core.baseline jal1 in
  let b_jal2 = scbexcp_reachable Designs.Core.baseline jal2 in
  let b_beq = scbexcp_reachable Designs.Core.baseline beq in
  let f_jalr = scbexcp_reachable Designs.Core.all_fixed jalr in
  let f_jal2 = scbexcp_reachable Designs.Core.all_fixed jal2 in
  Printf.printf
    "scbExcp reachable on buggy design:  JALR=%b  JAL(imm=1)=%b  JAL(imm=2)=%b  BEQ=%b\n"
    b_jalr b_jal1 b_jal2 b_beq;
  Printf.printf "scbExcp reachable on fixed design:  JALR=%b  JAL(imm=2)=%b\n"
    f_jalr f_jal2;
  check "bug 1: JALR never raises the misaligned exception (buggy)" (not b_jalr);
  check "bug 1: fixed JALR can raise it" f_jalr;
  check "JAL and branches sometimes reach scbExcp (buggy)" (b_jal1 && b_beq);
  check "bug 2: buggy JAL misses the 2-byte-aligned misalignment" (not b_jal2);
  check "bug 2: fixed JAL catches it" f_jal2

(* ------------------------------------------------------------------ *)
(* E12 — §VII-B1: IFT precision ablation                                *)
(* ------------------------------------------------------------------ *)
let e12 () =
  section "E12" "SS VII-B1 - IFT over-taint: precise vs degraded cell rules";
  let lw = Isa.make ~rd:3 ~rs1:2 Isa.LW in
  let r = run_mupath lw in
  let decisions =
    List.filter (fun (_, ds) -> List.length ds > 1) r.Mupath.Synth.decisions
  in
  (* two decision sources suffice to exhibit the precision effect *)
  let decisions =
    match decisions with a :: b :: _ -> [ a; b ] | l -> l
  in
  let tags precise =
    let a =
      flow_on_core ~precise ~transponder:lw ~decisions ~transmitters:[ Isa.ADD ]
        ~kind:Synthlc.Types.Dynamic_older ~operand:Synthlc.Types.Rs2 ()
    in
    List.length a.Synthlc.Flow.tagged
  in
  let p = tags true in
  let c = tags false in
  Printf.printf
    "decisions tagged as depending on an older ADD's rs2 (a benign input):\n";
  Printf.printf "  precise cell rules   : %d\n" p;
  Printf.printf "  degraded (union) rules: %d\n" c;
  check "degraded rules over-taint at least as much" (c >= p);
  Printf.printf
    "(conservative arithmetic rules remain — the residual tags mirror the\n paper's 14/94 signatures with extraneous inputs)\n"

(* ------------------------------------------------------------------ *)
(* E7 — Table II: user annotations                                      *)
(* ------------------------------------------------------------------ *)
let e7 () =
  section "E7" "Table II - user annotations per DUV";
  Printf.printf "%-11s %5s %5s %6s %7s %8s %4s %5s\n" "design" "uFSMs" "PCRs"
    "states" "operand" "commit" "ARF" "AMEM";
  List.iter
    (fun (name, meta) ->
      Printf.printf "%-11s %5d %5d %6d %7d %8s %4d %5d\n" name
        (List.length meta.Meta.ufsms)
        (Designs.Meta.count_pcrs meta)
        (Designs.Meta.count_ufsm_state_regs meta)
        (List.length meta.Meta.operand_regs)
        "1 wire"
        (List.length meta.Meta.arf)
        (List.length meta.Meta.amem))
    [
      ("cva6_lite", Designs.Core.build Designs.Core.baseline);
      ("cva6_op", Designs.Core.build Designs.Core.cva6_op);
      ("cva6_cache", Designs.Cache.build ());
    ];
  let core = Designs.Core.build Designs.Core.baseline in
  let cache = Designs.Cache.build () in
  check "core has ~21-scale uFSM inventory (paper: 21 for CVA6)"
    (List.length core.Meta.ufsms >= 14);
  check "cache uFSM inventory smaller than core (paper: 13 vs 38 state regs)"
    (List.length cache.Meta.ufsms < List.length core.Meta.ufsms)
