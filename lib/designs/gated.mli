(** A minimal DUV demonstrating the known-bits prune ({!Hdl.Absint}).

    Its "gate" µFSM's upper state bit is AND-gated on a register that
    provably stays 0 from reset — an invariant only the register-step
    known-bits fixpoint can see (no structural constant fold applies, and
    the plain FSM-reachability abstraction treats the gating register as
    unconstrained).  The two upper states are therefore base-reachable but
    known-bits-dead: exactly the covers the absint prune discharges.  Used
    by the absint and sweep tests (which pin its report digest) and the CI
    absint smoke. *)

val iuv_pc : int

val build : unit -> Meta.t
