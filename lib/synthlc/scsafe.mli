(** Hardware side-channel safety (Definition V.1) as an executable check.

    The receiver R_µPATH observes, each cycle, which performing locations
    are occupied.  SC-Safe(M, R) requires any two executions agreeing on
    public inputs to produce identical observation traces; this module
    searches for violations by paired simulation of low-equivalent initial
    states — the concrete counterpart of Eq. V.1, used by examples and
    tests to confirm that SynthLC-flagged channels are real. *)

type violation = {
  vi_secret_reg : int;  (** Index into the design's ARF list. *)
  vi_low : Bitvec.t;
  vi_high : Bitvec.t;
  vi_diverge_cycle : int;
}

val find_violation :
  ?trials:int ->
  ?cycles:int ->
  design:(unit -> Designs.Meta.t) ->
  program:Isa.t list ->
  secret_reg:int ->
  unit ->
  violation option
(** Vary one secret register between random values, hold everything else
    fixed, and diff the observation traces.  [None] means no violation was
    found within the trial budget (not a proof of safety).  [design] is
    called once, and every observation runs [program] through
    {!Designs.Stimulus.program} on one compiled simulator, reset with that
    observation's seed.  Raises [Invalid_argument] if [secret_reg] is not
    an index into the design's ARF. *)
