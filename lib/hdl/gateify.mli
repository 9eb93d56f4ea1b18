(** Word-level to gate-level lowering.

    Rewrites a netlist so that every bitwise/control operation (And, Or,
    Xor, Not, Mux, Eq, Ult, ReduceOr, ReduceAnd, Extract, Concat) becomes
    a forest of 1-bit gates, the shape Yosys + abc emit for synthesized
    cores.  Arithmetic (Add, Sub, Mul, Slt) is kept word-level, standing
    in for the adder/multiplier macro-cells a real gate-level flow leaves
    unmapped.  Inputs, constants and registers stay word-level and keep
    their names and relative order (so simulation draws the same random
    stimulus for both variants); every named combinational signal
    reappears under its name as the concatenation of its bits.

    The lowering is deliberately naive — each use of a word-level signal
    re-extracts the bits it needs, so structurally duplicate gates abound.
    That makes its output the canonical workload for {!Equiv}: a
    post-synthesis-shaped netlist that sweeps back down to size, while
    every named signal keeps its value on every cycle by construction. *)

val run : Netlist.t -> Netlist.t * Netlist.signal array
(** [run nl] returns the gate-level netlist and the total mapping [image]
    with [image.(old_id)] the new signal carrying the same word value.
    The input netlist must validate; so does the output. *)
