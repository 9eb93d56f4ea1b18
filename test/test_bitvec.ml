(* Unit and property tests for Bitvec: arithmetic laws checked against
   OCaml's native integers on widths up to 62, plus RISC-V division corner
   cases and structural operations. *)

let bv w n = Bitvec.of_int ~width:w n

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_construction () =
  check_int "width" 8 (Bitvec.width (Bitvec.zero 8));
  check_int "of_int" 5 (Bitvec.to_int (bv 8 5));
  check_int "truncation" 1 (Bitvec.to_int (bv 4 17));
  check_int "negative wraps" 0xFB (Bitvec.to_int (bv 8 (-5)));
  check_bool "zero is_zero" true (Bitvec.is_zero (Bitvec.zero 16));
  check_bool "ones is_ones" true (Bitvec.is_ones (Bitvec.ones 16));
  check_int "one" 1 (Bitvec.to_int (Bitvec.one 13));
  check_int "popcount ones" 11 (Bitvec.popcount (Bitvec.ones 11));
  Alcotest.check_raises "bad width" (Invalid_argument "Bitvec: width must be positive")
    (fun () -> ignore (Bitvec.zero 0))

let test_bits () =
  let v = bv 8 0b1010_0110 in
  check_bool "bit 1" true (Bitvec.bit v 1);
  check_bool "bit 0" false (Bitvec.bit v 0);
  check_bool "bit 7" true (Bitvec.bit v 7);
  check_int "set_bit" 0b1010_0111 (Bitvec.to_int (Bitvec.set_bit v 0 true));
  check_int "clear_bit" 0b0010_0110 (Bitvec.to_int (Bitvec.set_bit v 7 false));
  check_string "binary" "10100110" (Bitvec.to_binary_string v);
  check_string "hex" "a6" (Bitvec.to_hex_string v);
  check_int "of_binary_string" 0b101 (Bitvec.to_int (Bitvec.of_binary_string "101"));
  check_int "of_bits lsb-first" 0b110 (Bitvec.to_int (Bitvec.of_bits [ false; true; true ]))

let test_wide () =
  (* Cross the 64-bit limb boundary. *)
  let v = Bitvec.shift_left (Bitvec.one 100) 80 in
  check_bool "bit 80" true (Bitvec.bit v 80);
  check_int "popcount" 1 (Bitvec.popcount v);
  let w = Bitvec.add v v in
  check_bool "bit 81 after add" true (Bitvec.bit w 81);
  check_bool "bit 80 after add" false (Bitvec.bit w 80);
  check_bool "ult" true (Bitvec.ult v w);
  check_bool "wide ones + 1 wraps" true
    (Bitvec.is_zero (Bitvec.add (Bitvec.ones 100) (Bitvec.one 100)))

let test_division_corner_cases () =
  (* RISC-V semantics. *)
  check_int "udiv by zero" 255 (Bitvec.to_int (Bitvec.udiv (bv 8 42) (bv 8 0)));
  check_int "urem by zero" 42 (Bitvec.to_int (Bitvec.urem (bv 8 42) (bv 8 0)));
  check_int "sdiv by zero" 255 (Bitvec.to_int (Bitvec.sdiv (bv 8 42) (bv 8 0)));
  check_int "srem by zero" 42 (Bitvec.to_int (Bitvec.srem (bv 8 42) (bv 8 0)));
  (* overflow: min / -1 = min, rem = 0 *)
  check_int "sdiv overflow" 0x80 (Bitvec.to_int (Bitvec.sdiv (bv 8 0x80) (bv 8 0xFF)));
  check_int "srem overflow" 0 (Bitvec.to_int (Bitvec.srem (bv 8 0x80) (bv 8 0xFF)));
  (* signed rounding toward zero: -7 / 2 = -3 rem -1 *)
  check_int "sdiv -7/2" 0xFD (Bitvec.to_int (Bitvec.sdiv (bv 8 (-7)) (bv 8 2)));
  check_int "srem -7/2" 0xFF (Bitvec.to_int (Bitvec.srem (bv 8 (-7)) (bv 8 2)))

let test_structure () =
  let v = bv 8 0xA5 in
  check_int "extract hi" 0xA (Bitvec.to_int (Bitvec.extract v ~hi:7 ~lo:4));
  check_int "extract lo" 0x5 (Bitvec.to_int (Bitvec.extract v ~hi:3 ~lo:0));
  check_int "concat" 0xA5 (Bitvec.to_int (Bitvec.concat (bv 4 0xA) (bv 4 0x5)));
  check_int "zero_extend" 0xA5 (Bitvec.to_int (Bitvec.zero_extend v 16));
  check_int "sign_extend neg" 0xFFA5 (Bitvec.to_int (Bitvec.sign_extend v 16));
  check_int "sign_extend pos" 0x25 (Bitvec.to_int (Bitvec.sign_extend (bv 8 0x25) 16));
  check_int "to_signed pos" 5 (Bitvec.to_signed_int (bv 8 5));
  check_int "to_signed neg" (-5) (Bitvec.to_signed_int (bv 8 (-5)))

let test_shifts () =
  check_int "shl" 0b101000 (Bitvec.to_int (Bitvec.shift_left (bv 8 0b1010) 2));
  check_int "shl saturate" 0 (Bitvec.to_int (Bitvec.shift_left (bv 8 0xFF) 8));
  check_int "srl" 0b10 (Bitvec.to_int (Bitvec.shift_right_logical (bv 8 0b1010) 2));
  check_int "sra neg" 0xFF (Bitvec.to_int (Bitvec.shift_right_arith (bv 8 0x80) 7));
  check_int "sra pos" 0x20 (Bitvec.to_int (Bitvec.shift_right_arith (bv 8 0x40) 1))

(* --- qcheck properties vs native ints -------------------------------- *)

let arb_w_pair =
  QCheck.make
    ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
    QCheck.Gen.(
      int_range 1 24 >>= fun w ->
      let m = (1 lsl w) - 1 in
      int_bound m >>= fun a ->
      int_bound m >>= fun b -> return (w, a, b))

let mask w x = x land ((1 lsl w) - 1)

let prop name f = QCheck.Test.make ~count:500 ~name arb_w_pair f

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop "add matches int" (fun (w, a, b) ->
          Bitvec.to_int (Bitvec.add (bv w a) (bv w b)) = mask w (a + b));
      prop "sub matches int" (fun (w, a, b) ->
          Bitvec.to_int (Bitvec.sub (bv w a) (bv w b)) = mask w (a - b));
      prop "mul matches int" (fun (w, a, b) ->
          w > 30
          || Bitvec.to_int (Bitvec.mul (bv w a) (bv w b)) = mask w (a * b));
      prop "udiv matches int" (fun (w, a, b) ->
          b = 0
          || Bitvec.to_int (Bitvec.udiv (bv w a) (bv w b)) = a / b);
      prop "urem matches int" (fun (w, a, b) ->
          b = 0 || Bitvec.to_int (Bitvec.urem (bv w a) (bv w b)) = a mod b);
      prop "divmod identity" (fun (w, a, b) ->
          let q = Bitvec.udiv (bv w a) (bv w b) in
          let r = Bitvec.urem (bv w a) (bv w b) in
          b = 0 || Bitvec.equal (bv w a) (Bitvec.add (Bitvec.mul q (bv w b)) r));
      prop "ult matches int" (fun (w, a, b) -> Bitvec.ult (bv w a) (bv w b) = (a < b));
      prop "logand matches int" (fun (w, a, b) ->
          Bitvec.to_int (Bitvec.logand (bv w a) (bv w b)) = a land b);
      prop "logor matches int" (fun (w, a, b) ->
          Bitvec.to_int (Bitvec.logor (bv w a) (bv w b)) = a lor b);
      prop "logxor matches int" (fun (w, a, b) ->
          Bitvec.to_int (Bitvec.logxor (bv w a) (bv w b)) = a lxor b);
      prop "lognot involutive" (fun (w, a, _) ->
          Bitvec.equal (bv w a) (Bitvec.lognot (Bitvec.lognot (bv w a))));
      prop "neg is two's complement" (fun (w, a, _) ->
          Bitvec.to_int (Bitvec.neg (bv w a)) = mask w (-a));
      prop "compare total order" (fun (w, a, b) ->
          Stdlib.compare (compare a b) 0 = Stdlib.compare (Bitvec.compare (bv w a) (bv w b)) 0);
      prop "binary string roundtrip" (fun (w, a, _) ->
          Bitvec.equal (bv w a) (Bitvec.of_binary_string (Bitvec.to_binary_string (bv w a))));
      prop "bits roundtrip" (fun (w, a, _) ->
          Bitvec.equal (bv w a) (Bitvec.of_bits (Bitvec.to_bits (bv w a))));
      prop "concat then extract" (fun (w, a, b) ->
          let c = Bitvec.concat (bv w a) (bv w b) in
          Bitvec.equal (bv w a) (Bitvec.extract c ~hi:((2 * w) - 1) ~lo:w)
          && Bitvec.equal (bv w b) (Bitvec.extract c ~hi:(w - 1) ~lo:0));
      prop "slt matches signed int" (fun (w, a, b) ->
          let signed w x = if x land (1 lsl (w - 1)) <> 0 then x - (1 lsl w) else x in
          Bitvec.slt (bv w a) (bv w b) = (signed w a < signed w b));
    ]

(* [Blast] asks [is_ones] of every node at every frame: both checks are
   exact at every limb boundary and allocate nothing. *)
let test_zero_ones_checks () =
  let widths = [ 1; 16; 63; 64; 65; 128; 130 ] in
  List.iter
    (fun w ->
      let name what = Printf.sprintf "width %d: %s" w what in
      check_bool (name "ones is_ones") true (Bitvec.is_ones (Bitvec.ones w));
      check_bool (name "zero not is_ones") false (Bitvec.is_ones (Bitvec.zero w));
      check_bool (name "ones less its msb not is_ones") false
        (Bitvec.is_ones (Bitvec.set_bit (Bitvec.ones w) (w - 1) false));
      check_bool (name "ones less bit 0 not is_ones") false
        (Bitvec.is_ones (Bitvec.set_bit (Bitvec.ones w) 0 false));
      check_bool (name "msb alone not is_zero") false
        (Bitvec.is_zero (Bitvec.set_bit (Bitvec.zero w) (w - 1) true)))
    widths;
  let vs = List.concat_map (fun w -> [ Bitvec.ones w; Bitvec.zero w ]) widths in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    List.iter
      (fun v ->
        ignore (Sys.opaque_identity (Bitvec.is_zero v));
        ignore (Sys.opaque_identity (Bitvec.is_ones v)))
      vs
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "28,000 checks allocate nothing (%.0f words)" words) true
    (words < 100.)

let suite =
  ( "bitvec",
    [
      Alcotest.test_case "construction" `Quick test_construction;
      Alcotest.test_case "is_zero and is_ones" `Quick test_zero_ones_checks;
      Alcotest.test_case "bits" `Quick test_bits;
      Alcotest.test_case "wide vectors" `Quick test_wide;
      Alcotest.test_case "division corner cases" `Quick test_division_corner_cases;
      Alcotest.test_case "structure" `Quick test_structure;
      Alcotest.test_case "shifts" `Quick test_shifts;
    ]
    @ qcheck_tests )
