(** One operating mode for the sound static pre-passes that decide covers
    before the model checker sees them: µFSM reachability and its
    known-bits refinement in {!Synth}, the operand taint cone and its
    known-bits refinement in [Synthlc.Flow].

    Every pre-pass splits its covers into live and dead the same way in
    both modes, and a dead cover never enters the main checker stream:
    dispatching it there would perturb the checker's RNG stream and
    learned-clause state and could change later witnesses.  So the report
    digest is the same in both modes whenever the abstraction is sound.
    The mode only decides what happens to the dead covers once the main
    stream has run. *)

type mode = [ `On | `Audit ]
(** [`On] discharges the dead covers as unreachable without a checker
    call.  [`Audit] re-checks each of them after the main stream and fails
    on a [Reachable] verdict: nothing downstream can re-admit a cover at
    that point, so there is no mode that trusts a late verdict. *)

val discharge :
  mode ->
  check:('lits -> Mc.Checker.outcome) ->
  (string * string * 'lits) list ->
  int
(** [discharge mode ~check dead] decides the [(abstraction, cover,
    literals)] entries of [dead], which one pre-pass proved unreachable.
    Under [`On] it never calls [check] and returns [List.length dead], the
    number of covers discharged.  Under [`Audit] it calls [check] once per
    entry, in order, lets [Unreachable] and [Undetermined] verdicts pass,
    and returns 0; the first [Reachable] verdict raises
    [Failure "Prune: <abstraction> abstraction unsound: <cover> is
    reachable"]. *)
