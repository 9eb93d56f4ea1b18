(* Shared vocabulary for leakage-contract synthesis (§IV). *)

(* Transmitter typing per Fig. 7: intrinsic (the transponder itself),
   dynamic (a concurrently in-flight older/younger instruction), or static
   (materialized and dematerialized before the transponder reached the
   decision source). *)
type transmitter_kind = Intrinsic | Dynamic_older | Dynamic_younger | Static

let kind_name = function
  | Intrinsic -> "intrinsic"
  | Dynamic_older -> "dynamic-older"
  | Dynamic_younger -> "dynamic-younger"
  | Static -> "static"

let kind_short = function
  | Intrinsic -> "N"
  | Dynamic_older -> "D<"
  | Dynamic_younger -> "D>"
  | Static -> "S"

type operand = Rs1 | Rs2

let operand_name = function Rs1 -> "rs1" | Rs2 -> "rs2"

(* A typed explicit input to a leakage function: transmitter opcode, its
   unsafe operand, and its runtime type. *)
type explicit_input = {
  transmitter : Isa.opcode;
  unsafe_operand : operand;
  kind : transmitter_kind;
}

(* A tagged decision: the transponder's decision (src, dst) was shown to
   depend on the transmitter's operand (a reachable taint witness). *)
type tagged_decision = {
  src : string;
  dst : string list; (* sorted PL labels *)
  input : explicit_input;
}

(* A leakage signature (§IV-D): everything a leakage function exposes to a
   µPATH-observing receiver — transponder and decision source (the function
   name), typed transmitters with their unsafe operands (explicit inputs),
   and the decision destinations (return values). *)
type signature = {
  transponder : Isa.opcode;
  source : string; (* decision source PL *)
  inputs : explicit_input list;
  destinations : string list list; (* the observed decision destination sets *)
}

let signature_name s =
  Printf.sprintf "%s_%s"
    (String.uppercase_ascii (Isa.mnemonic s.transponder))
    s.source

let pp_explicit_input fmt e =
  Format.fprintf fmt "%s^%s.%s"
    (String.uppercase_ascii (Isa.mnemonic e.transmitter))
    (kind_short e.kind) (operand_name e.unsafe_operand)

let pp_signature fmt s =
  Format.fprintf fmt "@[<v2>dst %s(%s):@," (signature_name s)
    (String.concat ", "
       (List.map (Format.asprintf "%a" pp_explicit_input) s.inputs));
  List.iter
    (fun d -> Format.fprintf fmt "-> {%s}@," (String.concat ", " d))
    s.destinations;
  Format.fprintf fmt "@]"
