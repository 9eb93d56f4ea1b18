(* Command-line driver for the RTL2MµPATH / SynthLC reproduction.

   Subcommands:
     sim       — assemble and run a program on a core, printing PL occupancy
     mupath    — synthesize the µPATH set for one instruction
     synthlc   — synthesize leakage signatures for one or more instructions
     scsafe    — search for an SC-Safe (Def. V.1) violation
     designs   — print design metadata (the Table II annotations) *)

open Cmdliner

(* A design the commands can run: how to build a fresh instance, the
   stimulus family that drives it and its IUV slot.  Built-ins are the rows
   of [builtins]; an imported design is admitted into the same shape. *)
type design = {
  build : unit -> Designs.Meta.t;
  kind : Designs.Stimulus.kind;
  iuv_pc : int;
}

let builtins =
  let row kind iuv_pc build = { build; kind; iuv_pc } in
  let core cfg =
    row Designs.Stimulus.Core Designs.Core.iuv_pc (fun () -> Designs.Core.build cfg)
  in
  [
    ("cva6_lite", core Designs.Core.baseline);
    ("cva6_mul", core Designs.Core.cva6_mul);
    ("cva6_op", core Designs.Core.cva6_op);
    ("cva6_fixed", core Designs.Core.all_fixed);
    ("ibex_lite", row Designs.Stimulus.Ibex Designs.Ibex.iuv_pc Designs.Ibex.build);
    ("cva6_cache", row Designs.Stimulus.Cache Designs.Cache.iuv_pc Designs.Cache.build);
    ("gated", row Designs.Stimulus.None Designs.Gated.iuv_pc Designs.Gated.build);
  ]

let design_names = List.map fst builtins

(* --- design resolution -------------------------------------------------- *)
(* A design is either a built-in name or a path to a Yosys write_json
   netlist ([*.json]) with a metadata sidecar next to it.  Imported designs
   go through the Frontend.Admission pipeline (parse, cell mapping, sidecar
   resolution, mandatory µLint) before any checker sees them. *)

let is_json_path d = Filename.check_suffix d ".json"

let default_meta_path json_path =
  Filename.remove_extension json_path ^ ".meta.json"

(* An unknown design name is a harness error: exit 2 with a clean message,
   matching lint's 0/1/2 contract (mupath/synthlc/lint all agree). *)
let check_design_name ~cmd d =
  if (not (is_json_path d)) && not (List.mem d design_names) then begin
    Printf.eprintf
      "%s: unknown design %S (expected: %s, or a Yosys .json netlist path)\n"
      cmd d
      (String.concat ", " design_names);
    exit 2
  end

(* A rejected import is also a harness error: print the full admission
   report (every offending cell named) and exit 2. *)
let with_admission ~cmd f =
  try f ()
  with Frontend.Diag.Rejected r ->
    Format.eprintf "%a@." Lint.Diagnostic.pp_report r;
    Printf.eprintf "%s: design rejected at admission\n" cmd;
    exit 2

(* Each [build] call returns a design instance of its own (Mupath.Synth
   extends the netlist it is given): a built-in elaborates again, and an
   import is admitted once and copied per call.  The admission's frontend
   warnings (F513: an unpinned IUV) go to stderr; µLint's findings are
   [import]'s and [lint]'s to print, as the gate-level example alone
   carries hundreds of L004 warnings. *)
let resolve_design ~cmd ?meta d =
  check_design_name ~cmd d;
  if is_json_path d then begin
    let meta_path = Option.value meta ~default:(default_meta_path d) in
    let a =
      with_admission ~cmd (fun () ->
          Frontend.Admission.load ~json_path:d ~meta_path ())
    in
    let report = a.Frontend.Admission.report in
    (match
       List.filter
         (fun (x : Lint.Diagnostic.t) ->
           x.severity = Lint.Diagnostic.Warning
           && String.starts_with ~prefix:"F" x.code)
         report.Lint.Diagnostic.diags
     with
    | [] -> ()
    | diags ->
      Format.eprintf "%a@." Lint.Diagnostic.pp_report { report with diags });
    {
      build = (fun () -> Designs.Meta.copy a.Frontend.Admission.meta);
      kind = a.Frontend.Admission.stimulus;
      iuv_pc = a.Frontend.Admission.iuv_pc;
    }
  end
  else List.assoc d builtins

(* An unknown --counts label is a harness error too: exit 2 with the
   design's PL-group labels, instead of a harness exception mid-run. *)
let check_counts ~cmd meta counts =
  let labels = List.map fst (Mupath.Harness.pl_groups meta) in
  match List.filter (fun l -> not (List.mem l labels)) counts with
  | [] -> ()
  | unknown ->
    Printf.eprintf "%s: unknown PL label(s) %s (design %s has: %s)\n" cmd
      (String.concat ", " unknown)
      meta.Designs.Meta.design_name
      (String.concat ", " labels);
    exit 2

let design_arg =
  let doc =
    "Design under verification: " ^ String.concat ", " design_names
    ^ ", or a path to a Yosys $(b,write_json) netlist (anything ending in \
       .json; see the $(b,import) subcommand and --meta)."
  in
  Arg.(value & opt string "cva6_lite" & info [ "d"; "design" ] ~docv:"DESIGN" ~doc)

let meta_arg =
  let doc =
    "Metadata sidecar for an imported .json design (µFSM/IFR annotations by \
     signal name).  Default: $(i,DESIGN).meta.json next to the netlist."
  in
  Arg.(value & opt (some string) None & info [ "meta" ] ~docv:"FILE" ~doc)

(* A count out of range is a usage error naming its flag (exit 124), not
   an exception from deep inside the checker or a silent clamp. *)
let int_from least what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int = int_from 0 "a non-negative"
let pos_int = int_from 1 "a positive"

let depth_arg =
  Arg.(value & opt nonneg_int 12 & info [ "depth" ] ~docv:"N" ~doc:"BMC unrolling depth.")

let episodes_arg =
  Arg.(value & opt nonneg_int 12 & info [ "episodes" ] ~docv:"N" ~doc:"Random-simulation pre-pass episodes.")

let jobs_arg =
  let doc =
    "Worker domains for the per-instruction fan-out.  0 (the default) \
     resolves to $(b,SYNTHLC_JOBS) if set, else the recommended domain \
     count.  Results are bit-identical for every value."
  in
  Arg.(value & opt nonneg_int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs j = if j >= 1 then j else Pool.default_jobs ()

let shards_arg =
  let doc =
    "Checker shards for property-level parallelism within one synthesis \
     (trades shared learned clauses for cores; 1 = single incremental \
     solver)."
  in
  Arg.(value & opt pos_int 1 & info [ "shards" ] ~docv:"K" ~doc)

let cache_dir_arg =
  let env = Cmd.Env.info "SYNTHLC_CACHE" ~doc:"Default directory for $(b,--cache-dir)." in
  let doc =
    "Persistent verdict-cache directory.  Checker verdicts (witness traces \
     included) are stored content-addressed under $(docv) and replayed on \
     later runs; a fully-warm run is bit-identical to the cold run that \
     filled the cache."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~env ~docv:"DIR" ~doc)

let cache_of = Option.map (fun dir -> Vcache.create ~dir ())

let prune_arg =
  let doc =
    "Audit the static pre-passes instead of trusting them: µFSM \
     reachability and, for $(b,synthlc), the operand taint cone, each with \
     its known-bits refinement.  The covers they prove unreachable are \
     re-checked by the model checker after the main property stream, and \
     a reachable one fails the run.  The report digest is bit-identical \
     either way."
  in
  Arg.(value & vflag `On [ (`Audit, info [ "no-static-prune" ] ~doc) ])

let sweep_conv =
  let parse = function
    | "on" -> Ok Mc.Checker.Sweep_on
    | "off" -> Ok Mc.Checker.Sweep_off
    | "audit" -> Ok Mc.Checker.Sweep_audit
    | s -> Error (`Msg (Printf.sprintf "invalid sweep mode %S (expected on, off, or audit)" s))
  in
  let print fmt m = Format.pp_print_string fmt (Mc.Checker.sweep_mode_tag m) in
  Arg.conv (parse, print)

let sweep_arg =
  let doc =
    "Equivalence-sweep the netlist the SAT engines encode: $(b,off) \
     (default) encodes the design as-is; $(b,on) merges SAT-proven \
     equivalent combinational nodes before encoding ($(b,Hdl.Equiv)); \
     $(b,audit) computes with the swept engine and re-runs every \
     SAT-resolved cover on an unswept engine, failing the run on any \
     verdict or witness divergence.  Witnesses are canonical, so the \
     report digest is bit-identical across all three modes."
  in
  Arg.(value & opt sweep_conv Mc.Checker.Sweep_off & info [ "sweep" ] ~docv:"MODE" ~doc)

let imprecise_ift_arg =
  let doc =
    "Degrade the IFT cell rules from value-aware to taint-union for \
     AND/OR/MUX (the SS VII-B1 precision ablation).  Threaded identically \
     into the static taint pre-pass, recorded in the report (the digest \
     differs from a precise run), and namespaced in the verdict cache."
  in
  Arg.(value & flag & info [ "imprecise-ift" ] ~doc)

let print_cache_counters = function
  | None -> ()
  | Some c ->
    let hits, misses, stores = Vcache.counters c in
    Printf.printf "cache: hits=%d misses=%d stores=%d\n" hits misses stores

(* Assembly parse failures surface as Cmdliner conversion errors (usage +
   exit 124), not uncaught exceptions. *)
let instr_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Isa.parse s) in
  let print fmt i = Format.pp_print_string fmt (Isa.to_string i) in
  Arg.conv (parse, print)

(* An unknown transmitter mnemonic is a usage error naming it, not a
   silently dropped opcode. *)
let opcode_conv =
  let parse s =
    match Isa.opcode_of_mnemonic s with
    | Some op -> Ok op
    | None -> Error (`Msg (Printf.sprintf "unknown opcode mnemonic %S" s))
  in
  let print fmt op = Format.pp_print_string fmt (Isa.mnemonic op) in
  Arg.conv (parse, print)

let instrs_conv =
  let parse s =
    match Isa.parse_list s with
    | Ok [] -> Error (`Msg "no instructions given")
    | Ok l -> Ok l
    | Error e -> Error (`Msg e)
  in
  let print fmt l =
    Format.pp_print_string fmt (String.concat "; " (List.map Isa.to_string l))
  in
  Arg.conv (parse, print)

let instr_arg =
  let doc = "Instruction under verification, in assembly (e.g. 'div r1, r2, r3')." in
  Arg.(
    value
    & opt instr_conv (Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD)
    & info [ "i"; "instr" ] ~docv:"ASM" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run's spans (checker \
     dispatches, cache traffic, synthesis stages, engine tasks) to $(docv); \
     open it in chrome://tracing or ui.perfetto.dev.  Tracing never changes \
     results: the report digest is bit-identical with and without it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the run's metrics registry (counters/gauges/histograms, e.g. \
     $(b,cache.hits)) as a flat JSON object to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Observability wrapper: enable the obs layer when either output was
   requested, write the files when the action finishes (even on raise, so
   a failing run still leaves its partial trace behind). *)
let with_obs ~trace ~metrics f =
  if trace = None && metrics = None then f ()
  else begin
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Option.iter Obs.write_chrome_trace trace;
        Option.iter Obs.write_metrics_json metrics;
        Obs.disable ())
      f
  end

(* The checker configuration [mupath] and [synthlc] share: --depth,
   --episodes and --sweep over fixed budgets. *)
let config_term =
  let config_of depth episodes sweep =
    {
      Mc.Checker.default_config with
      Mc.Checker.bmc_depth = depth;
      bmc_conflicts = 60_000;
      induction_max_k = 2;
      sim_episodes = episodes;
      sim_cycles = 44;
      sweep;
    }
  in
  Term.(const config_of $ depth_arg $ episodes_arg $ sweep_arg)

(* --- sim -------------------------------------------------------------- *)

let sim_cmd =
  let run dname program_file cycles =
    let fail msg =
      Printf.eprintf "sim: %s\n" msg;
      exit 2
    in
    let d = resolve_design ~cmd:"sim" dname in
    (match d.kind with
    | Designs.Stimulus.Cache ->
      fail "sim drives processor cores; use the cache tests for the cache DUV"
    | Designs.Stimulus.None ->
      fail
        (Printf.sprintf
           "sim drives processor cores; design %s has stimulus kind %s, so \
            no program input drives it (core or ibex expected)"
           dname (Designs.Stimulus.kind_name d.kind))
    | Designs.Stimulus.Core | Designs.Stimulus.Ibex -> ());
    let meta = d.build () in
    let asm =
      if program_file = "-" then In_channel.input_all In_channel.stdin
      else In_channel.with_open_text program_file In_channel.input_all
    in
    let program = match Isa.assemble asm with Ok p -> p | Error e -> fail e in
    let sim = Sim.create ~seed:1 meta.Designs.Meta.nl in
    let observe sim c =
      let cells =
        List.map
          (fun ((u : Designs.Meta.ufsm), state) ->
            Printf.sprintf "%s[%d]"
              (Designs.Meta.state_value meta u state)
              (Bitvec.to_int (Sim.peek sim u.Designs.Meta.pcr)))
          (Designs.Meta.occupied meta sim)
      in
      Printf.printf "c%03d: %s\n" c (String.concat " " cells)
    in
    Sim.run sim ~cycles ~stimulus:(Designs.Stimulus.program meta program) ~observe;
    Sim.eval sim;
    List.iteri
      (fun i r ->
        Printf.printf "r%d = 0x%s\n" (i + 1)
          (Bitvec.to_hex_string (Sim.peek sim r)))
      meta.Designs.Meta.arf
  in
  let program =
    Arg.(value & opt string "-" & info [ "p"; "program" ] ~docv:"FILE" ~doc:"Assembly file ('-' for stdin).")
  in
  let cycles = Arg.(value & opt nonneg_int 32 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to simulate.") in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a program on a core, printing PL occupancy per cycle")
    Term.(const run $ design_arg $ program $ cycles)

(* --- mupath ----------------------------------------------------------- *)

let mupath_cmd =
  let run dname meta_path iuv config dot counts shards cache_dir prune trace
      metrics =
    let d = resolve_design ~cmd:"mupath" ?meta:meta_path dname in
    with_obs ~trace ~metrics (fun () ->
        let meta = d.build () in
        check_counts ~cmd:"mupath" meta counts;
        let iuv_pc = d.iuv_pc in
        let pins = [ (iuv_pc, iuv) ] in
        let stim =
          Option.map (fun f -> f ~pins ~rotate:[] meta) (Designs.Stimulus.of_kind d.kind)
        in
        let cache = cache_of cache_dir in
        let r =
          Mupath.Synth.run ?cache ~config ?stimulus:stim
            ~static_prune:(prune = `On) ~absint:prune
            ~revisit_count_labels:counts ~shards ~meta ~iuv ~iuv_pc ()
        in
        Format.printf "%a@." Mupath.Synth.pp_result r;
        Printf.printf "report digest: %s\n" (Mupath.Synth.result_digest r);
        print_cache_counters cache;
        if dot then
          List.iteri
            (fun i d -> Printf.printf "--- uPATH %d DOT ---\n%s" i d)
            (Mupath.Synth.to_dot r))
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit DOT for each uPATH.") in
  let counts =
    Arg.(value & opt (list string) [] & info [ "counts" ] ~docv:"PLS" ~doc:"PLs to derive revisit cycle counts for (SS V-B6).")
  in
  Cmd.v
    (Cmd.info "mupath" ~doc:"RTL2MuPATH: synthesize the uPATH set for one instruction")
    Term.(
      const run $ design_arg $ meta_arg $ instr_arg $ config_term $ dot
      $ counts $ shards_arg $ cache_dir_arg $ prune_arg $ trace_arg
      $ metrics_arg)

(* --- synthlc ---------------------------------------------------------- *)

let synthlc_cmd =
  let run dname meta_path instructions transmitters config static jobs
      cache_dir prune imprecise trace metrics =
    let d = resolve_design ~cmd:"synthlc" ?meta:meta_path dname in
    with_obs ~trace ~metrics @@ fun () ->
    (* One instance serves the whole run: Engine.run copies it per task
       and never mutates it. *)
    let meta = d.build () in
    let iuv_pc = d.iuv_pc in
    let stimulus = Designs.Stimulus.of_kind d.kind in
    let kinds =
      [ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older; Synthlc.Types.Dynamic_younger ]
      @ (if static then [ Synthlc.Types.Static ] else [])
    in
    let jobs = resolve_jobs jobs in
    let revisit_count_labels =
      (* Keep only the labels this design actually has (ibex_lite has no
         mulU, the cache DUV has neither). *)
      let available = List.map fst (Mupath.Harness.pl_groups meta) in
      List.filter (fun l -> List.mem l available) [ "divU"; "mulU"; "ID" ]
    in
    let cache = cache_of cache_dir in
    let report =
      Synthlc.Engine.run ?cache ~config ~precise:(not imprecise) ~prune
        ?stimulus ~design:(fun () -> meta) ~jobs ~instructions ~transmitters
        ~kinds ~revisit_count_labels ~iuv_pc ()
    in
    Format.printf "%a@." Synthlc.Engine.pp_report report;
    Printf.printf "report digest: %s\n" (Synthlc.Engine.report_digest report);
    print_cache_counters cache;
    let grid = Synthlc.Grid.build report.Synthlc.Engine.transponders in
    Format.printf "@.Fig. 8-style grid:@.%a@." Synthlc.Grid.pp grid;
    let signatures = Synthlc.Engine.all_signatures report in
    let revisit_counts =
      List.map
        (fun (t : Synthlc.Engine.transponder_report) ->
          (t.Synthlc.Engine.instr.Isa.op, t.Synthlc.Engine.synth.Mupath.Synth.revisit_counts))
        report.Synthlc.Engine.transponders
    in
    let bundle =
      Synthlc.Contracts.derive ~signatures ~revisit_counts
        ~store_opcodes:[ Isa.SW; Isa.SB ]
    in
    Format.printf "@.%a@." Synthlc.Contracts.pp_bundle bundle
  in
  let instrs =
    Arg.(value & opt instrs_conv [ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV ] & info [ "i"; "instrs" ] ~docv:"ASM;..." ~doc:"Transponder instructions, separated by $(b,;) or $(b,,) (a segment starting with a mnemonic begins a new instruction).")
  in
  let txs =
    Arg.(value & opt (list opcode_conv) Isa.[ DIV; LW; SW; BEQ; ADD ] & info [ "t"; "transmitters" ] ~docv:"OPS" ~doc:"Candidate transmitter opcodes, by mnemonic.")
  in
  let static = Arg.(value & flag & info [ "static" ] ~doc:"Also analyze static transmitters (Assumption 3).") in
  Cmd.v
    (Cmd.info "synthlc" ~doc:"SynthLC: synthesize leakage signatures and contracts")
    Term.(
      const run $ design_arg $ meta_arg $ instrs $ txs $ config_term $ static
      $ jobs_arg $ cache_dir_arg $ prune_arg $ imprecise_ift_arg $ trace_arg
      $ metrics_arg)

(* --- scsafe ----------------------------------------------------------- *)

let scsafe_cmd =
  let run program_src secret trials =
    let fail msg =
      Printf.eprintf "scsafe: %s\n" msg;
      exit 2
    in
    let program =
      match Isa.assemble program_src with Ok p -> p | Error e -> fail e
    in
    let meta = Designs.Core.build Designs.Core.baseline in
    let arf = List.length meta.Designs.Meta.arf in
    if secret < 0 || secret >= arf then
      fail (Printf.sprintf "--secret %d is not an ARF index (expected 0..%d)" secret (arf - 1));
    match
      Synthlc.Scsafe.find_violation ~trials ~design:(fun () -> meta) ~program
        ~secret_reg:secret ()
    with
    | Some v ->
      Printf.printf
        "SC-Safe VIOLATED: secret r%d = 0x%s vs 0x%s diverges observations at cycle %d\n"
        (secret + 1)
        (Bitvec.to_hex_string v.Synthlc.Scsafe.vi_low)
        (Bitvec.to_hex_string v.Synthlc.Scsafe.vi_high)
        v.Synthlc.Scsafe.vi_diverge_cycle
    | None -> Printf.printf "no violation found in %d trials\n" trials
  in
  let program =
    Arg.(value & opt string "sw r3, 0(r1)\nlw r3, 0(r2)" & info [ "p"; "program" ] ~docv:"ASM" ~doc:"Program (newline-separated).")
  in
  let secret =
    Arg.(value & opt int 0 & info [ "secret" ] ~docv:"N" ~doc:"Secret ARF register index (0 = r1).")
  in
  let trials = Arg.(value & opt nonneg_int 32 & info [ "trials" ] ~docv:"N" ~doc:"Random trials.") in
  Cmd.v
    (Cmd.info "scsafe" ~doc:"Search for a Definition V.1 violation by paired simulation")
    Term.(const run $ program $ secret $ trials)

(* --- cache ------------------------------------------------------------ *)

let cache_cmd =
  (* A missing directory is a usage error, not a crash: report it through
     Cmdliner (message on stderr, exit 124) instead of an uncaught
     [Failure] backtrace. *)
  let with_dir k = function
    | Some d -> `Ok (k d)
    | None ->
      `Error (false, "no cache directory: pass --cache-dir or set SYNTHLC_CACHE")
  in
  let stats_cmd =
    let run dir =
      with_dir
        (fun dir ->
          let entries = Vcache.disk_entries ~dir in
          let bytes = List.fold_left (fun a (_, b) -> a + b) 0 entries in
          Printf.printf "%s: %d entries, %d bytes (format v%d)\n" dir
            (List.length entries) bytes Vcache.format_version)
        dir
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Report entry count and total size of a verdict-cache directory")
      Term.(ret (const run $ cache_dir_arg))
  in
  let clear_cmd =
    let run dir =
      with_dir
        (fun dir ->
          Printf.printf "removed %d entries from %s\n" (Vcache.clear_dir ~dir) dir)
        dir
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Delete every entry in a verdict-cache directory")
      Term.(ret (const run $ cache_dir_arg))
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear the persistent verdict cache")
    [ stats_cmd; clear_cmd ]

(* --- lint ------------------------------------------------------------- *)

let lint_cmd =
  (* Lint a .json import through the admission [import] runs, without the
     fail-fast wrapper: frontend warnings and the lint findings land in one
     printable report, and a rejected import contributes its error report
     (exit 2 via the shared exit-code computation) instead of aborting the
     other designs. *)
  let lint_imported path =
    match
      Frontend.Admission.load ~json_path:path
        ~meta_path:(default_meta_path path) ()
    with
    | d -> d.Frontend.Admission.report
    | exception Frontend.Diag.Rejected r -> r
  in
  let run json names =
    (* An unknown design name is a harness error (exit 2), not a
       Cmdliner-level crash: the 0/1/2 contract below is what CI asserts. *)
    let unknown =
      List.filter
        (fun n -> (not (is_json_path n)) && not (List.mem n design_names))
        names
    in
    if unknown <> [] then begin
      Printf.eprintf "lint: unknown design(s): %s (expected: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " design_names);
      exit 2
    end;
    let names = if names = [] then design_names else names in
    let reports =
      List.map
        (fun dname ->
          if is_json_path dname then lint_imported dname
          else Lint.Driver.run_design ((List.assoc dname builtins).build ()))
        names
    in
    if json then print_string (Lint.Diagnostic.to_json reports)
    else
      List.iter
        (fun r -> Format.printf "%a@." Lint.Diagnostic.pp_report r)
        reports;
    exit (Lint.Diagnostic.exit_code reports)
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON (the CI artifact format).")
  in
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"DESIGN" ~doc:"Designs to lint: built-in names or .json netlist paths (default: all built-ins).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"uLint: static analysis of a design's netlist and annotations"
       ~man:
         [
           `S Manpage.s_description;
           `P "Runs the structural (L0xx), annotation (L1xx), \
               reachability (L2xx), taint-flow (T3xx), and known-bits \
               (A4xx) passes over each named design.  Exit status is 0 \
               when clean, 1 when the worst finding is a warning, and 2 \
               on any error; infos (the whole A series) never affect the \
               exit status.";
         ])
    Term.(const run $ json $ names)

(* --- fuzz ------------------------------------------------------------- *)

let fuzz_cmd =
  let run seed count budget_s only defect_s out depth episodes =
    (* Everything unexpected is a harness error: exit 2, mirroring lint's
       0/1/2 contract (0 = all oracles green, 1 = oracle divergence). *)
    match
      let defect =
        match defect_s with
        | None -> None
        | Some s -> (
          match Fuzz.Gen.defect_of_string s with
          | Some d -> Some d
          | None ->
            failwith
              (Printf.sprintf
                 "unknown defect %S (expected: label-idle, pc-width)" s))
      in
      let summary =
        Fuzz.Driver.campaign ~depth ~episodes ~defect ?only ~budget_s
          ~log:print_endline ~seed ~count ()
      in
      Option.iter
        (fun f ->
          Out_channel.with_open_text f (fun oc ->
              output_string oc (Fuzz.Driver.summary_to_json summary)))
        out;
      summary
    with
    | summary ->
      Printf.printf
        "fuzz: seed %d: %d design(s), %d failure(s), %d skipped in %.1fs\n"
        summary.Fuzz.Driver.seed
        (List.length summary.Fuzz.Driver.designs)
        (List.length summary.Fuzz.Driver.failures)
        summary.Fuzz.Driver.skipped summary.Fuzz.Driver.total_time_s;
      exit (Fuzz.Driver.exit_code summary)
    | exception e ->
      Printf.eprintf "fuzz: harness error: %s\n" (Printexc.to_string e);
      exit 2
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed; design $(i,i) is derived from (seed, i) alone.")
  in
  let count =
    Arg.(value & opt int 25 & info [ "count" ] ~docv:"N" ~doc:"Number of generated designs.")
  in
  let budget =
    Arg.(value & opt float 0. & info [ "budget-s" ] ~docv:"T" ~doc:"Wall-clock budget in seconds; designs beyond it are skipped (0 = unbounded).")
  in
  let only =
    Arg.(value & opt (some int) None & info [ "only" ] ~docv:"I" ~doc:"Run a single design index (the reproducer form).")
  in
  let defect =
    Arg.(value & opt (some string) None & info [ "inject-defect" ] ~docv:"D" ~doc:"Inject a deliberate metadata defect into every design: $(b,label-idle) or $(b,pc-width).  The lint oracle must catch it.")
  in
  let out =
    Arg.(value & opt (some string) (Some "fuzz_corpus.json") & info [ "out" ] ~docv:"FILE" ~doc:"Corpus summary JSON path (the CI artifact format): per-design digests, oracle verdicts, pruned/checked counts, timing, failures with reproducers.")
  in
  let depth =
    Arg.(value & opt int Fuzz.Driver.default_depth & info [ "depth" ] ~docv:"N" ~doc:"BMC unrolling depth for the oracle battery.")
  in
  let episodes =
    Arg.(value & opt int Fuzz.Driver.default_episodes & info [ "episodes" ] ~docv:"N" ~doc:"Simulation pre-pass episodes for the oracle battery.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Design-space fuzzing: generate pipelines, differentially test the flow"
       ~man:
         [
           `S Manpage.s_description;
           `P "Samples pipeline configs (frontend depth, MUL/DIV latency \
               mix, store-buffer depth, cache tags, speculation), elaborates \
               each into a netlist with auto-derived µFSM/IFR metadata, and \
               runs a differential oracle battery over it: netlist \
               validation, known-bits containment of a random simulation, \
               µLint admission, elaboration determinism, Yosys-JSON round \
               trip, -j1 vs -j2 digest equality, cold vs warm verdict-cache \
               bit-identity, digest identity with all four static \
               pre-passes audited, and sweep on/audit digest identity.";
           `P "On a failure the config is shrunk along its parameter \
               lattice (the shrunk config must reproduce the same oracle \
               failure class) and a one-line reproducer is printed: \
               $(b,synthlc fuzz --seed S --only I).";
           `S Manpage.s_exit_status;
           `P "0 when every oracle on every design passes; 1 on any oracle \
               divergence; 2 on a harness error (bad usage, unexpected \
               exception).  This mirrors the $(b,lint) 0/1/2 contract.";
         ])
    Term.(
      const run $ seed $ count $ budget $ only $ defect $ out $ depth
      $ episodes)

(* --- import / export --------------------------------------------------- *)

let import_cmd =
  let run path meta_path top json sweep =
    let meta_path = Option.value meta_path ~default:(default_meta_path path) in
    match Frontend.Admission.load ?top ~json_path:path ~meta_path () with
    | d ->
      let reports = [ d.Frontend.Admission.report ] in
      if json then print_string (Lint.Diagnostic.to_json reports)
      else begin
        Format.printf "%a@." Lint.Diagnostic.pp_report
          d.Frontend.Admission.report;
        let nl = d.Frontend.Admission.meta.Designs.Meta.nl in
        Printf.printf
          "admitted: %s (%d nodes, %d regs, %d uFSMs) stimulus=%s iuv_pc=%d\n"
          d.Frontend.Admission.meta.Designs.Meta.design_name
          (Hdl.Netlist.num_nodes nl)
          (List.length (Hdl.Netlist.registers nl))
          (List.length d.Frontend.Admission.meta.Designs.Meta.ufsms)
          (Designs.Stimulus.kind_name d.Frontend.Admission.stimulus)
          d.Frontend.Admission.iuv_pc;
        if sweep then begin
          let meta = d.Frontend.Admission.meta in
          let reduced, _, st =
            Hdl.Equiv.reduce ~barriers:(Designs.Meta.signals meta) nl
          in
          Printf.printf
            "sweep: %d/%d comb nodes merged (%.1f%%) -> %d nodes \
             (classes=%d complement=%d const=%d vetoed=%d sat=%d/%d unknown=%d)\n"
            st.Hdl.Equiv.merged st.Hdl.Equiv.comb_nodes
            (if st.Hdl.Equiv.comb_nodes = 0 then 0.
             else
               100.
               *. float_of_int st.Hdl.Equiv.merged
               /. float_of_int st.Hdl.Equiv.comb_nodes)
            (Hdl.Netlist.num_nodes reduced)
            st.Hdl.Equiv.classes st.Hdl.Equiv.complement_merged
            st.Hdl.Equiv.const_merged st.Hdl.Equiv.vetoed
            st.Hdl.Equiv.sat_refuted st.Hdl.Equiv.sat_queries
            st.Hdl.Equiv.sat_unknown
        end
      end;
      exit (Lint.Diagnostic.exit_code reports)
    | exception Frontend.Diag.Rejected r ->
      if json then print_string (Lint.Diagnostic.to_json [ r ])
      else Format.printf "%a@." Lint.Diagnostic.pp_report r;
      Printf.eprintf "import: rejected %s\n" path;
      exit 2
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN.json" ~doc:"Yosys $(b,write_json) netlist to admit.")
  in
  let top =
    Arg.(value & opt (some string) None & info [ "top" ] ~docv:"MODULE" ~doc:"Module to import (default: the module with the $(b,top) attribute, else the only non-blackbox module).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the admission report as JSON (the CI artifact format).")
  in
  let sweep =
    Arg.(value & flag & info [ "sweep" ] ~doc:"After admission, run the equivalence sweep ($(b,Hdl.Equiv)) on the imported netlist and print reduction statistics (merged node count, class breakdown, SAT query tally).")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Admit a Yosys JSON netlist: parse, map cells, resolve the \
             sidecar, run uLint"
       ~man:
         [
           `S Manpage.s_description;
           `P "Runs the full admission pipeline without any synthesis: parse \
               the netlist, map every cell onto the word-level IR (naming \
               each unsupported cell type and instance), resolve the \
               metadata sidecar by signal name, and run the mandatory uLint \
               filter.  The printed report is exactly what $(b,mupath) and \
               $(b,synthlc) gate on before touching a checker.";
           `S Manpage.s_exit_status;
           `P "0 when admitted clean, 1 when admitted with warnings, 2 when \
               rejected (unsupported cells, malformed JSON or sidecar, \
               clock-discipline or lint errors).";
         ])
    Term.(const run $ path $ meta_arg $ top $ json $ sweep)

let export_cmd =
  let run dname out meta_out gate =
    if not (List.mem dname design_names) then begin
      Printf.eprintf "export: unknown design %S (expected: %s)\n" dname
        (String.concat ", " design_names);
      exit 2
    end;
    let d = List.assoc dname builtins in
    let meta = d.build () in
    let out =
      match out with Some o -> o | None -> meta.Designs.Meta.design_name ^ ".json"
    in
    let meta_out = Option.value meta_out ~default:(default_meta_path out) in
    let sidecar =
      Frontend.Sidecar.of_meta ~stimulus:d.kind ~iuv_pc:d.iuv_pc meta
    in
    let nl =
      if gate then fst (Hdl.Gateify.run meta.Designs.Meta.nl)
      else meta.Designs.Meta.nl
    in
    Out_channel.with_open_text out (fun oc ->
        output_string oc (Frontend.Yosys.export_string nl));
    Out_channel.with_open_text meta_out (fun oc ->
        output_string oc (Frontend.Json.to_string sidecar);
        output_char oc '\n');
    Printf.printf "wrote %s and %s\n" out meta_out
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Netlist output path (default: $(i,DESIGN).json in the current directory).")
  in
  let meta_out =
    Arg.(value & opt (some string) None & info [ "meta-out" ] ~docv:"FILE" ~doc:"Sidecar output path (default: derived from the netlist path).")
  in
  let dname =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc:"Built-in design to export.")
  in
  let gate =
    Arg.(value & flag & info [ "gate-level" ] ~doc:"Lower the netlist to 1-bit gates ($(b,Hdl.Gateify)) before exporting — a post-synthesis-shaped variant of the same design.  Annotated signals keep their names, so the sidecar is unchanged and the variant admits against the same metadata.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a built-in design as Yosys-compatible JSON plus its \
             metadata sidecar"
       ~man:
         [
           `S Manpage.s_description;
           `P "The emitted netlist round-trips: importing it yields a \
               netlist whose digest is identical to the built-in's, which \
               is how examples/ stays honest (the committed example is a \
               checked-in $(b,export) output).";
         ])
    Term.(const run $ dname $ out $ meta_out $ gate)

(* --- designs ---------------------------------------------------------- *)

let designs_cmd =
  let run () =
    List.iter
      (fun (dname, d) ->
        let meta = d.build () in
        let nl = meta.Designs.Meta.nl in
        Printf.printf "%-11s nodes=%5d regs=%3d inputs=%d uFSMs=%2d PCRs=%2d state-regs=%2d\n"
          dname (Hdl.Netlist.num_nodes nl)
          (List.length (Hdl.Netlist.registers nl))
          (List.length (Hdl.Netlist.inputs nl))
          (List.length meta.Designs.Meta.ufsms)
          (Designs.Meta.count_pcrs meta)
          (Designs.Meta.count_ufsm_state_regs meta);
        List.iter
          (fun (u : Designs.Meta.ufsm) ->
            Printf.printf "    %-8s states: %s\n" u.Designs.Meta.ufsm_name
              (String.concat " "
                 (List.map (fun (_, l) -> l) u.Designs.Meta.state_labels)))
          meta.Designs.Meta.ufsms)
      builtins
  in
  Cmd.v
    (Cmd.info "designs" ~doc:"Print design inventories and Table II-style annotations")
    Term.(const run $ const ())

let () =
  let doc = "RTL2MuPATH + SynthLC (MICRO 2024) reproduction toolkit" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "synthlc" ~doc)
          [
            sim_cmd;
            mupath_cmd;
            synthlc_cmd;
            scsafe_cmd;
            cache_cmd;
            lint_cmd;
            fuzz_cmd;
            import_cmd;
            export_cmd;
            designs_cmd;
          ]))
