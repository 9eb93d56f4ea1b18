(* Interchange-format tests: µSPEC model emission from synthesis
   results. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_uspec_emission () =
  let meta = Test_mupath.toy_design () in
  let r =
    Mupath.Synth.run ~config:Test_mupath.toy_config ~meta ~iuv:(Isa.make Isa.ADD)
      ~iuv_pc:2 ()
  in
  let axiom = Mupath.Uspec.axiom_of_result r in
  Alcotest.(check bool) "axiom header" true (contains axiom "Axiom \"ADD_uPATHs\"");
  Alcotest.(check bool) "disjunction over uPATHs" true (contains axiom "\\/");
  Alcotest.(check bool) "node terms" true (contains axiom "NodeExists (i, A)");
  Alcotest.(check bool) "edge terms" true (contains axiom "EdgeExists ((i, A), (i, C))");
  Alcotest.(check bool) "consecutive convention" true (contains axiom "C(1)");
  let model = Mupath.Uspec.model_of_results ~design_name:"toy" [ r ] in
  Alcotest.(check bool) "stage definitions" true (contains model "StageName \"A\"");
  Alcotest.(check bool) "decision comments" true (contains model "(* decision ADD_A:")

let suite =
  ( "formats",
    [
      Alcotest.test_case "uspec emission" `Quick test_uspec_emission;
    ] )
