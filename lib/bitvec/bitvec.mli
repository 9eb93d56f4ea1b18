(** Arbitrary-width bit-vectors.

    A value of type {!t} is an unsigned bit-vector of a fixed positive width,
    backed by little-endian 64-bit limbs.  All operations are total: inputs of
    mismatched width raise [Invalid_argument], and division by zero follows
    RISC-V semantics (see {!udiv}).  Values are immutable and normalized
    (bits above [width] are always zero), so structural equality coincides
    with semantic equality. *)

type t

(** {1 Construction} *)

val width : t -> int

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w].  Raises if [w <= 0]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val one : int -> t
(** [one w] is the vector of width [w] with value 1. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] truncates the two's-complement representation of [n]
    to [width] bits. *)

val of_int64 : width:int -> int64 -> t

val of_bool : bool -> t
(** 1-bit vector: [true] is 1, [false] is 0. *)

val of_bits : bool list -> t
(** [of_bits bits] builds a vector from [bits] listed LSB first.
    Raises on the empty list. *)

val of_binary_string : string -> t
(** [of_binary_string "1010"] parses an MSB-first binary literal. *)

(** {1 Observation} *)

val to_int : t -> int
(** Value as a non-negative OCaml [int].  Raises [Invalid_argument] if the
    value does not fit in 62 bits. *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (0 = LSB).  Raises if [i] is out of range. *)

val to_bits : t -> bool list
(** LSB first. *)

val is_zero : t -> bool
val is_ones : t -> bool
val msb : t -> bool
val popcount : t -> int
val to_binary_string : t -> string
val to_hex_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison; vectors of different widths compare by width first. *)

val hash : t -> int

(** {1 Bitwise operations} (operands must have equal width) *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** {1 Arithmetic} (operands must have equal width; results wrap) *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val udiv : t -> t -> t
(** RISC-V semantics: division by zero yields all ones. *)

val urem : t -> t -> t
(** RISC-V semantics: remainder by zero yields the dividend. *)

val sdiv : t -> t -> t
(** Signed division, RISC-V semantics: by zero yields all ones; overflow
    (min / -1) yields min. *)

val srem : t -> t -> t
(** Signed remainder, RISC-V semantics: by zero yields the dividend;
    overflow yields zero. *)

(** {1 Shifts} — shift amount is an OCaml [int]; amounts [>= width] saturate. *)

val shift_left : t -> int -> t
val shift_right_logical : t -> int -> t
val shift_right_arith : t -> int -> t

(** {1 Comparisons as predicates} *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
(** Signed less-than. *)

(** {1 Structure} *)

val extract : t -> hi:int -> lo:int -> t
(** [extract v ~hi ~lo] is bits [hi..lo] inclusive, width [hi - lo + 1]. *)

val concat : t -> t -> t
(** [concat hi lo] has [hi] in the high bits. *)

val zero_extend : t -> int -> t
(** [zero_extend v w] widens to [w] bits ([w >= width v]). *)

val sign_extend : t -> int -> t

val set_bit : t -> int -> bool -> t
(** Functional update of one bit. *)

(** {1 Signed value} *)

val to_signed_int : t -> int
(** Two's-complement value.  Raises if it does not fit in an OCaml [int]. *)

(** {1 Randomness (for tests and simulation stimulus)} *)

val random : Random.State.t -> int -> t
(** [random st w] draws a uniform vector of width [w]. *)
