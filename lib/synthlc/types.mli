(** Shared vocabulary for leakage-contract synthesis (§IV). *)

(** Transmitter typing per Fig. 7: intrinsic (the transponder itself),
    dynamic (a concurrently in-flight older/younger instruction), or static
    (materialized and dematerialized before the transponder reached the
    decision source). *)
type transmitter_kind = Intrinsic | Dynamic_older | Dynamic_younger | Static

val kind_name : transmitter_kind -> string

val kind_short : transmitter_kind -> string
(** The paper's superscript notation: N, D (older/younger), S. *)

type operand = Rs1 | Rs2

val operand_name : operand -> string

type explicit_input = {
  transmitter : Isa.opcode;
  unsafe_operand : operand;
  kind : transmitter_kind;
}
(** A typed explicit input to a leakage function (§IV-C). *)

type tagged_decision = {
  src : string;  (** Decision-source PL label. *)
  dst : string list;  (** Destination PL set (sorted labels). *)
  input : explicit_input;
}
(** A decision shown (by a reachable taint witness) to depend on the
    transmitter's operand (§V-C1). *)

type signature = {
  transponder : Isa.opcode;
  source : string;
  inputs : explicit_input list;
  destinations : string list list;
}
(** A leakage signature (§IV-D): transponder and decision source (the
    function name), typed transmitters with unsafe operands (explicit
    inputs), decision destinations (return values). *)

val signature_name : signature -> string
(** E.g. ["LD_issue"]. *)

val pp_explicit_input : Format.formatter -> explicit_input -> unit
val pp_signature : Format.formatter -> signature -> unit
