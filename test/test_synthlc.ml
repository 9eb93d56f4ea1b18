(* SynthLC tests: signature assembly rules (footnote 3), the six Table I
   contract derivations on synthetic signatures, the Fig. 8 grid builder,
   symbolic IFT on the toy DUV (intrinsic transmitter detection), and the
   SC-Safe (Def. V.1) violation finder on the real core. *)

open Synthlc

let sig_input ?(kind = Types.Intrinsic) ?(op = Types.Rs1) tx =
  { Types.transmitter = tx; unsafe_operand = op; kind }

let mk_sig ?(inputs = [ sig_input Isa.DIV ]) ?(dsts = [ [ "a" ]; [ "b" ] ])
    transponder source =
  { Types.transponder; source; inputs; destinations = dsts }

let test_signature_naming () =
  let s = mk_sig Isa.LW "issue" in
  Alcotest.(check string) "name" "LW_issue" (Types.signature_name s);
  let rendered = Format.asprintf "%a" Types.pp_signature s in
  Alcotest.(check bool) "renders inputs" true (String.length rendered > 20)

let test_ct_contract () =
  let sigs =
    [
      mk_sig Isa.DIV "scbIss" ~inputs:[ sig_input Isa.DIV; sig_input ~op:Types.Rs2 Isa.DIV ];
      mk_sig Isa.ADD "ID" ~inputs:[ sig_input ~kind:Types.Dynamic_older Isa.LW ];
      (* duplicate unsafe operand across signatures must dedup *)
      mk_sig Isa.SUB "ID" ~inputs:[ sig_input ~kind:Types.Dynamic_older Isa.LW ];
    ]
  in
  let ct = Contracts.ct_of_signatures sigs in
  Alcotest.(check int) "deduped unsafe operands" 3 (List.length ct.Contracts.unsafe)

let test_stt_derivation () =
  let sigs =
    [
      (* explicit channel: DIV leaks its own operands *)
      mk_sig Isa.DIV "scbIss" ~inputs:[ sig_input Isa.DIV ];
      (* implicit channel: LW's path varies with an older SW's operand *)
      mk_sig Isa.LW "issue" ~inputs:[ sig_input ~kind:Types.Dynamic_older Isa.SW ];
      (* static-transmitter channel *)
      mk_sig Isa.LW "rdTag" ~inputs:[ sig_input ~kind:Types.Static Isa.LW ];
    ]
  in
  let stt = Contracts.stt_of_signatures sigs in
  Alcotest.(check int) "explicit channels" 1 (List.length stt.Contracts.stt_explicit_channels);
  Alcotest.(check int) "implicit channels" 2 (List.length stt.Contracts.stt_implicit_channels);
  Alcotest.(check int) "implicit branches" 1 (List.length stt.Contracts.stt_implicit_branches);
  Alcotest.(check int) "resolution-based" 1 (List.length stt.Contracts.stt_resolution_based);
  Alcotest.(check int) "prediction-based (static)" 1
    (List.length stt.Contracts.stt_prediction_based)

let test_mi6_and_dolma () =
  let sigs =
    [
      mk_sig Isa.LW "issue" ~inputs:[ sig_input ~kind:Types.Dynamic_older Isa.SW ];
      mk_sig Isa.LW "rdTag" ~inputs:[ sig_input ~kind:Types.Static Isa.LW ];
    ]
  in
  let mi6 = Contracts.mi6_of_signatures sigs in
  Alcotest.(check int) "mi6 dynamic" 1 (List.length mi6.Contracts.mi6_dynamic_channels);
  Alcotest.(check int) "mi6 static" 1 (List.length mi6.Contracts.mi6_static_channels);
  let dolma =
    Contracts.dolma_of ~signatures:sigs
      ~revisit_counts:[ (Isa.DIV, [ ("divU", [ 1; 2; 3 ]) ]) ]
      ~store_opcodes:[ Isa.SW; Isa.SB ]
  in
  Alcotest.(check (list string)) "variable time" [ "div" ]
    (List.map Isa.mnemonic dolma.Contracts.dolma_variable_time);
  Alcotest.(check int) "resolvent" 1 (List.length dolma.Contracts.dolma_resolvent);
  Alcotest.(check int) "inducive" 1 (List.length dolma.Contracts.dolma_inducive)

let test_oisa_sdo () =
  let sigs = [ mk_sig Isa.DIV "scbIss" ~inputs:[ sig_input Isa.DIV ] ] in
  let counts = [ (Isa.DIV, [ ("divU", [ 1; 4; 8 ]) ]); (Isa.ADD, [ ("ID", [ 1 ]) ]) ] in
  let oisa = Contracts.oisa_of ~signatures:sigs ~revisit_counts:counts in
  Alcotest.(check int) "oisa units" 1 (List.length oisa.Contracts.oisa_input_dependent_units);
  let sdo = Contracts.sdo_of ~signatures:sigs ~revisit_counts:counts in
  (match sdo.Contracts.sdo_variants with
  | [ (op, pl, ns) ] ->
    Alcotest.(check string) "sdo op" "div" (Isa.mnemonic op);
    Alcotest.(check string) "sdo pl" "divU" pl;
    Alcotest.(check (list int)) "sdo variants" [ 1; 4; 8 ] ns
  | _ -> Alcotest.fail "expected one sdo variant group");
  let bundle =
    Contracts.derive ~signatures:sigs ~revisit_counts:counts ~store_opcodes:[ Isa.SW ]
  in
  let rendered = Format.asprintf "%a" Contracts.pp_bundle bundle in
  Alcotest.(check bool) "bundle renders" true (String.length rendered > 50)

(* --- end-to-end symbolic IFT on the toy DUV -------------------------- *)

let test_flow_intrinsic_on_toy () =
  let design () = Test_mupath.toy_design () in
  (* First get the decisions via RTL2MuPATH. *)
  let r =
    Mupath.Synth.run ~config:Test_mupath.toy_config ~meta:(design ())
      ~iuv:(Isa.make Isa.ADD) ~iuv_pc:2 ()
  in
  let decisions =
    List.filter (fun (_, ds) -> List.length ds > 1) r.Mupath.Synth.decisions
  in
  Alcotest.(check bool) "toy has a decision" true (decisions <> []);
  (* Intrinsic rs1 taint: the A-decision is steered by bit 0 of the token's
     own operand, so both its destinations are tagged.  C's stay-or-leave
     decision (its exit shows only in witnesses: the toy has no stimulus,
     so presim reaches no PL) is tagged on the stay, because the operand's
     taint sits in [st]; the exit, an empty destination set, carries no
     taint and is pruned statically. *)
  let a =
    Flow.analyze ~config:Test_mupath.toy_config ~meta:(design ())
      ~transponder:(Isa.make Isa.ADD) ~decisions ~transmitters:[ Isa.ADD ]
      ~kind:Types.Intrinsic ~operand:Types.Rs1 ~iuv_pc:2 ()
  in
  Alcotest.(check (list (pair string (list string)))) "intrinsic rs1 tags"
    [ ("A", [ "B" ]); ("A", [ "C" ]); ("C", [ "C" ]) ]
    (List.map (fun (d : Types.tagged_decision) -> (d.Types.src, d.Types.dst)) a.Flow.tagged);
  (* Signature assembly: two tagged decisions at A yield one signature; C's
     single tagged destination yields none (footnote 3). *)
  let sigs =
    Engine.signatures_of_tagged (Isa.make Isa.ADD) r.Mupath.Synth.decisions
      a.Flow.tagged
  in
  Alcotest.(check int) "one signature" 1 (List.length sigs);
  Alcotest.(check string) "signature name" "ADD_A"
    (Types.signature_name (List.hd sigs))

let test_footnote3_requires_two () =
  (* A single tagged decision must NOT yield a signature. *)
  let tagged =
    [ { Types.src = "A"; dst = [ "B" ]; input = sig_input Isa.ADD } ]
  in
  let sigs =
    Engine.signatures_of_tagged (Isa.make Isa.ADD)
      [ ("A", [ [ "B" ]; [ "C" ] ]) ]
      tagged
  in
  Alcotest.(check int) "no signature from one tag" 0 (List.length sigs)

let test_grid () =
  let report =
    {
      Engine.instr = Isa.make Isa.LW;
      synth =
        (let meta = Test_mupath.toy_design () in
         Mupath.Synth.run ~config:Test_mupath.toy_config ~meta
           ~iuv:(Isa.make Isa.LW) ~iuv_pc:2 ());
      tagged =
        [
          { Types.src = "A"; dst = [ "B" ]; input = sig_input Isa.LW };
          { Types.src = "A"; dst = [ "C" ]; input = sig_input Isa.LW };
          (* stall-in-place: secondary *)
          { Types.src = "A"; dst = [ "A" ]; input = sig_input ~kind:Types.Dynamic_older Isa.SW };
        ];
      signatures =
        [
          mk_sig Isa.LW "A" ~inputs:[ sig_input Isa.LW ] ~dsts:[ [ "B" ]; [ "C" ] ];
        ];
      flow_props = 3;
      flow_undetermined = 0;
      flow_pruned_static = 0;
      flow_pruned_absint = 0;
      flow_time = 0.1;
    }
  in
  let g = Grid.build [ report ] in
  Alcotest.(check int) "one column" 1 (List.length g.Grid.columns);
  Alcotest.(check bool) "rows for both transmitters" true (List.length g.Grid.rows >= 2);
  let col = List.hd g.Grid.columns in
  let prim_row =
    List.find (fun r -> r.Grid.row_transmitter = Isa.LW) g.Grid.rows
  in
  let sec_row = List.find (fun r -> r.Grid.row_transmitter = Isa.SW) g.Grid.rows in
  Alcotest.(check bool) "primary cell" true (Grid.cell_at g prim_row col = Grid.Primary);
  Alcotest.(check bool) "secondary cell" true (Grid.cell_at g sec_row col = Grid.Secondary);
  let rendered = Format.asprintf "%a" Grid.pp g in
  Alcotest.(check bool) "grid renders" true (String.length rendered > 40)

let test_scsafe_on_core () =
  (* The store-to-load channel violates Def. V.1 with the store's address
     secret... *)
  let program =
    match Isa.assemble "sw r3, 0(r1)\nsw r3, 0(r1)\nlw r3, 0(r2)" with
    | Ok p -> p
    | Error e -> failwith e
  in
  (match
     Scsafe.find_violation ~trials:16
       ~design:(fun () -> Designs.Core.build Designs.Core.baseline)
       ~program ~secret_reg:0 ()
   with
  | Some v ->
    Alcotest.(check int) "diverges at cycle 6" 6 v.Scsafe.vi_diverge_cycle;
    Alcotest.(check string) "low secret" "67" (Bitvec.to_hex_string v.Scsafe.vi_low);
    Alcotest.(check string) "high secret" "74" (Bitvec.to_hex_string v.Scsafe.vi_high)
  | None -> Alcotest.fail "expected an SC-Safe violation");
  (* ...whereas a pure ALU program over the secret is observation-equivalent
     (ALU ops are single-cycle and data-independent). *)
  let program =
    match Isa.assemble "add r2, r1, r1\nxor r2, r2, r1\nand r3, r2, r1" with
    | Ok p -> p
    | Error e -> failwith e
  in
  match
    Scsafe.find_violation ~trials:8
      ~design:(fun () -> Designs.Core.build Designs.Core.baseline)
      ~program ~secret_reg:0 ()
  with
  | None -> ()
  | Some _ -> Alcotest.fail "ALU-only program should be SC-Safe"

let suite =
  ( "synthlc",
    [
      Alcotest.test_case "signature naming" `Quick test_signature_naming;
      Alcotest.test_case "ct contract" `Quick test_ct_contract;
      Alcotest.test_case "stt derivation" `Quick test_stt_derivation;
      Alcotest.test_case "mi6 and dolma" `Quick test_mi6_and_dolma;
      Alcotest.test_case "oisa and sdo" `Quick test_oisa_sdo;
      Alcotest.test_case "flow intrinsic on toy" `Quick test_flow_intrinsic_on_toy;
      Alcotest.test_case "footnote 3" `Quick test_footnote3_requires_two;
      Alcotest.test_case "fig8 grid" `Quick test_grid;
      Alcotest.test_case "sc-safe on core" `Slow test_scsafe_on_core;
    ] )
