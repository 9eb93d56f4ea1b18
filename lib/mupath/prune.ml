type mode = [ `On | `Audit ]

let discharge mode ~check dead =
  match mode with
  | `On -> List.length dead
  | `Audit ->
    List.iter
      (fun (abstraction, cover, lits) ->
        match check lits with
        | Mc.Checker.Reachable _ ->
          failwith
            (Printf.sprintf "Prune: %s abstraction unsound: %s is reachable"
               abstraction cover)
        | Mc.Checker.Unreachable _ | Mc.Checker.Undetermined -> ())
      dead;
    0
