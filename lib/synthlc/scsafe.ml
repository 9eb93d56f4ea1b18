(* Hardware side-channel safety (Definition V.1) as an executable check.

   The receiver R_uPATH observes, each cycle, which performing locations are
   occupied by in-flight instructions.  SC-Safe(M, R) requires that for any
   program whose public inputs agree, the observation traces agree.  This
   module searches for violations by running low-equivalent initial-state
   pairs through the simulator and diffing observations — the concrete
   counterpart of the paper's Eq. V.1, used by examples and tests to
   demonstrate that SynthLC-flagged channels are real. *)

module Meta = Designs.Meta

(* One cycle's observation: the occupied µFSM states (performing locations),
   without data values — the R_uPATH observer model (§V-C2). *)
type observation = string list list

type violation = {
  vi_secret_reg : int; (* index into the ARF list *)
  vi_low : Bitvec.t;
  vi_high : Bitvec.t;
  vi_diverge_cycle : int;
}

(* Run the program [stimulus] drives on [sim], an instance compiled from
   [meta]'s netlist, with the given architectural register values.
   [reset ~seed] leaves [sim] as [Sim.create ~seed] would, so
   microarchitectural state is seeded identically across paired runs. *)
let observe sim ~(meta : Meta.t) ~stimulus ~(arf_values : Bitvec.t array)
    ~(cycles : int) ~seed : observation =
  Sim.reset ~seed sim;
  (* Pin architectural registers; memory keeps its seeded contents (it is
     identical across paired runs because the seed is shared). *)
  List.iteri (fun i r -> Sim.poke_reg sim r arf_values.(i)) meta.Meta.arf;
  let obs = ref [] in
  let observe sim _ =
    let occupied = Meta.occupied meta sim in
    obs := List.map (fun (u, state) -> Meta.state_value meta u state) occupied :: !obs
  in
  Sim.run sim ~cycles ~stimulus ~observe;
  List.rev !obs

(* Search for an Eq. V.1 violation: vary one secret register between two
   values, keep everything else (including microarchitectural state, via the
   shared seed) identical, and diff the observation traces. *)
let find_violation ?(trials = 32) ?(cycles = 48) ~(design : unit -> Meta.t)
    ~(program : Isa.t list) ~(secret_reg : int) () =
  let meta = design () in
  let arf = List.length meta.Meta.arf in
  if secret_reg < 0 || secret_reg >= arf then
    invalid_arg
      (Printf.sprintf "Scsafe.find_violation: secret_reg %d outside the ARF (0..%d)"
         secret_reg (arf - 1));
  let sim = Sim.create meta.Meta.nl in
  let stimulus = Designs.Stimulus.program meta program in
  let rng = Random.State.make [| 0x5afe1 |] in
  let rec go trial =
    if trial >= trials then None
    else begin
      let seed = Random.State.int rng 0x3FFFFFF in
      let base = Array.init arf (fun _ -> Bitvec.random rng Isa.xlen) in
      let low = base.(secret_reg) in
      let high = Bitvec.random rng Isa.xlen in
      let with_secret v =
        let a = Array.copy base in
        a.(secret_reg) <- v;
        a
      in
      let o1 = observe sim ~meta ~stimulus ~arf_values:(with_secret low) ~cycles ~seed in
      let o2 = observe sim ~meta ~stimulus ~arf_values:(with_secret high) ~cycles ~seed in
      let rec diff c a b =
        match (a, b) with
        | [], [] -> None
        | x :: xs, y :: ys ->
          if List.sort compare x <> List.sort compare y then Some c
          else diff (c + 1) xs ys
        | _ -> Some c
      in
      match diff 0 o1 o2 with
      | Some c ->
        Some { vi_secret_reg = secret_reg; vi_low = low; vi_high = high; vi_diverge_cycle = c }
      | None -> go (trial + 1)
    end
  in
  go 0
