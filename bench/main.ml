(* Benchmark/reproduction harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index) and times the
   domain-parallel engine (P1).  Exits 1 when a shape check fails or an
   experiment raises, 2 on an unknown experiment id.

   Usage:
     dune exec bench/main.exe                 # quick profile, all experiments
     REPRO_PROFILE=full dune exec bench/main.exe
     dune exec bench/main.exe -- E1 E4        # selected experiments only
     dune exec bench/main.exe -- -j 4 P1      # parallel fan-out width *)

let experiments =
  [
    ("E7", Experiments.e7);
    ("E1", Experiments.e1);
    ("E2", Experiments.e2);
    ("E3", Experiments.e3);
    ("E4", Experiments.e4);
    ("E5", Experiments.e5);
    ("E10", Experiments.e10);
    ("E12", Experiments.e12);
    ("E13", Experiments2.e13);
    ("E8", Experiments2.e8);
    ("E9", Experiments2.e9_e6);
    ("E11", Experiments2.e11);
    ("A1", Experiments2.ablation_pruning);
    ("A2", Experiments2.ablation_sim_assist);
    ("P1", Experiments2.parallel_speedup);
  ]

let time_budget =
  (* Optional wall-clock guard: once exceeded, remaining experiments are
     skipped (each prints a SKIPPED line) so a tee'd run always terminates. *)
  match Sys.getenv_opt "REPRO_TIME_BUDGET" with
  | Some s -> float_of_string_opt s
  | None -> None

let () =
  let rec parse sel = function
    | [] -> List.rev sel
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v >= 1 -> Experiments2.requested_jobs := v
      | _ -> failwith "bench: -j expects a positive integer");
      parse sel rest
    | x :: rest -> parse (x :: sel) rest
  in
  let sel = parse [] (List.tl (Array.to_list Sys.argv)) in
  let t0 = Unix.gettimeofday () in
  Printf.printf "RTL2MuPATH + SynthLC reproduction benches (profile: %s)\n"
    (match Experiments.profile with `Quick -> "quick" | `Full -> "full");
  let known = List.map fst experiments in
  let selected = if sel = [] then known else sel in
  (* E8, E9 and A1 read E13's engine run, so a selection holding any of
     them runs E13 first. *)
  let selected =
    if
      List.exists (fun id -> List.mem id Experiments2.reads_e13) selected
      && not (List.mem "E13" selected)
    then "E13" :: selected
    else selected
  in
  (* Unknown IDs are a harness error (exit 2), not a silent no-op: a run
     selecting a misspelled experiment must fail loudly rather than
     produce an empty-but-green run. *)
  (match List.filter (fun id -> not (List.mem id known)) selected with
  | [] -> ()
  | bad ->
    Printf.eprintf "bench: unknown experiment id(s): %s (expected: %s)\n"
      (String.concat ", " bad)
      (String.concat ", " known);
    exit 2);
  let errors = ref 0 in
  List.iter
    (fun (id, f) ->
      if List.mem id selected then
        let over_budget =
          match time_budget with
          | Some b -> Unix.gettimeofday () -. t0 > b
          | None -> false
        in
        if over_budget then
          Printf.printf "  [SKIPPED] %s: REPRO_TIME_BUDGET exceeded\n%!" id
        else
          try f ()
          with e ->
            incr errors;
            Printf.printf "  [EXPERIMENT-ERROR] %s: %s\n%!" id
              (Printexc.to_string e))
    experiments;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0);
  let mismatches = !Experiments.mismatches in
  if mismatches > 0 || !errors > 0 then begin
    Printf.printf "%d shape mismatch(es), %d experiment error(s)\n" mismatches
      !errors;
    exit 1
  end
