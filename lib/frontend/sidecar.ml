(* Sidecar metadata reader/writer.  See sidecar.mli and DESIGN.md §18. *)

module N = Hdl.Netlist
module M = Designs.Meta

type t = { meta : M.t; iuv_pc : int; stimulus : Designs.Stimulus.kind }

let resolve nl j =
  let design = N.name nl in
  let errs = ref [] in
  let err d = errs := d :: !errs in
  let schema ctx msg =
    err (Diag.error ~code:"F511" (Printf.sprintf "%s: %s" ctx msg))
  in
  (* On error, record the diagnostic and return a placeholder; the
     collected report is rejected before any placeholder can escape. *)
  let sig_named ctx nm =
    match N.find_named nl nm with
    | Some s -> s
    | None ->
      err
        (Diag.error ~code:"F510" ~signal_name:nm
           (Printf.sprintf "%s: no signal named %S in the netlist" ctx nm));
      0
  in
  let field_str ctx k o =
    match Option.bind (Json.member k o) Json.to_str with
    | Some s -> s
    | None ->
      schema ctx (Printf.sprintf "missing or non-string field %S" k);
      ""
  in
  let field_sig ctx k o =
    match field_str ctx k o with "" -> 0 | nm -> sig_named ctx nm
  in
  let field_int ctx k o =
    match Option.bind (Json.member k o) Json.to_int with
    | Some n -> n
    | None ->
      schema ctx (Printf.sprintf "missing or non-integer field %S" k);
      0
  in
  let str_list ctx k o =
    match Json.member k o with
    | None -> []
    | Some (Json.List l) ->
      List.filter_map
        (fun v ->
          match Json.to_str v with
          | Some s -> Some s
          | None ->
            schema ctx (Printf.sprintf "field %S: non-string element" k);
            None)
        l
    | Some _ ->
      schema ctx (Printf.sprintf "field %S is not a list" k);
      []
  in
  let sig_list ctx k o = List.map (sig_named ctx) (str_list ctx k o) in
  (match Option.bind (Json.member "design" j) Json.to_str with
  | Some d when d <> design ->
    schema "sidecar"
      (Printf.sprintf "names design %S but the netlist module is %S" d design)
  | _ -> ());
  let stimulus =
    match Option.bind (Json.member "stimulus" j) Json.to_str with
    | None -> Designs.Stimulus.None
    | Some s -> (
      match Designs.Stimulus.kind_of_string s with
      | Some k -> k
      | None ->
        schema "sidecar"
          (Printf.sprintf
             "unknown stimulus %S (expected none, core, ibex, or cache)" s);
        Designs.Stimulus.None)
  in
  let iuv_pc = field_int "sidecar" "iuv_pc" j in
  let ifrs =
    match Json.member "ifrs" j with
    | Some (Json.List l) ->
      List.mapi
        (fun i o ->
          let ctx = Printf.sprintf "ifrs[%d]" i in
          {
            M.ifr_valid = field_sig ctx "valid" o;
            ifr_pc = field_sig ctx "pc" o;
            ifr_word = field_sig ctx "word" o;
          })
        l
    | _ ->
      schema "sidecar" "missing \"ifrs\" list";
      []
  in
  let operand_stage_valid, operand_stage_pc =
    match Json.member "operand_stage" j with
    | Some o -> (field_sig "operand_stage" "valid" o, field_sig "operand_stage" "pc" o)
    | None ->
      schema "sidecar" "missing \"operand_stage\" object";
      (0, 0)
  in
  let commit = field_sig "sidecar" "commit" j in
  let commit_pc = field_sig "sidecar" "commit_pc" j in
  let flush = field_sig "sidecar" "flush" j in
  let state_bv ctx width s =
    if s = "" || not (String.for_all (function '0' | '1' -> true | _ -> false) s)
    then begin
      schema ctx (Printf.sprintf "state key %S is not a binary string" s);
      Bitvec.zero width
    end
    else if String.length s <> width then begin
      schema ctx
        (Printf.sprintf "state key %S has width %d, expected %d (the summed \
                         width of the µFSM's vars)"
           s (String.length s) width);
      Bitvec.zero width
    end
    else Bitvec.of_binary_string s
  in
  let ufsms =
    match Json.member "ufsms" j with
    | None -> []
    | Some (Json.List l) ->
      List.map
        (fun o ->
          let name =
            match Option.bind (Json.member "name" o) Json.to_str with
            | Some s -> s
            | None ->
              schema "ufsms" "entry without a \"name\"";
              "?"
          in
          let ctx = "ufsm " ^ name in
          let vars = sig_list ctx "vars" o in
          let width =
            max 1
              (List.fold_left (fun acc v -> acc + N.width nl v) 0 vars)
          in
          let idle_states =
            List.map (state_bv ctx width) (str_list ctx "idle" o)
          in
          let state_labels =
            match Json.member "labels" o with
            | None -> []
            | Some (Json.Assoc kv) ->
              List.map
                (fun (k, v) ->
                  let label =
                    match Json.to_str v with
                    | Some s -> s
                    | None ->
                      schema ctx
                        (Printf.sprintf "label for state %S is not a string" k);
                      "?"
                  in
                  (state_bv ctx width k, label))
                kv
            | Some _ ->
              schema ctx "\"labels\" is not an object";
              []
          in
          {
            M.ufsm_name = name;
            pcr = field_sig ctx "pcr" o;
            vars;
            idle_states;
            state_labels;
          })
        l
    | Some _ ->
      schema "sidecar" "\"ufsms\" is not a list";
      []
  in
  let operand_regs =
    match Json.member "operands" j with
    | None -> []
    | Some (Json.Assoc kv) ->
      List.map
        (fun (k, v) ->
          match Json.to_str v with
          | Some nm -> (k, sig_named ("operand " ^ k) nm)
          | None ->
            schema "operands" (Printf.sprintf "operand %S is not a string" k);
            (k, 0))
        kv
    | Some _ ->
      schema "sidecar" "\"operands\" is not an object";
      []
  in
  let arf = sig_list "sidecar" "arf" j in
  let amem = sig_list "sidecar" "amem" j in
  let extra_assumes = sig_list "sidecar" "assumes" j in
  if !errs <> [] then Diag.reject ~design (List.rev !errs);
  {
    meta =
      {
        M.design_name = design;
        nl;
        ifrs;
        operand_stage_valid;
        operand_stage_pc;
        commit;
        commit_pc;
        flush;
        ufsms;
        operand_regs;
        arf;
        amem;
        extra_assumes;
      };
    iuv_pc;
    stimulus;
  }

let resolve_file nl path =
  let design = N.name nl in
  match Json.parse_file path with
  | exception Sys_error m -> Diag.reject ~design [ Diag.error ~code:"F511" m ]
  | exception Json.Parse_error m ->
    Diag.reject ~design [ Diag.error ~code:"F511" (path ^ ": " ^ m) ]
  | j -> resolve nl j

(* --- writer ------------------------------------------------------------- *)

let of_meta ~stimulus ~iuv_pc (meta : M.t) =
  let nl = meta.M.nl in
  let name_of s =
    match (N.node nl s).N.name with
    | Some nm -> nm
    | None ->
      failwith
        (Printf.sprintf
           "Sidecar.of_meta: node %d of %s is unnamed; name every annotated \
            signal"
           s meta.M.design_name)
  in
  let jstr s = Json.String s in
  let jsig s = jstr (name_of s) in
  let jsigs l = Json.List (List.map jsig l) in
  Json.Assoc
    [
      ("design", jstr meta.M.design_name);
      ("stimulus", jstr (Designs.Stimulus.kind_name stimulus));
      ("iuv_pc", Json.Int iuv_pc);
      ( "ifrs",
        Json.List
          (List.map
             (fun (i : M.ifr_slot) ->
               Json.Assoc
                 [
                   ("valid", jsig i.M.ifr_valid);
                   ("pc", jsig i.M.ifr_pc);
                   ("word", jsig i.M.ifr_word);
                 ])
             meta.M.ifrs) );
      ( "operand_stage",
        Json.Assoc
          [
            ("valid", jsig meta.M.operand_stage_valid);
            ("pc", jsig meta.M.operand_stage_pc);
          ] );
      ("commit", jsig meta.M.commit);
      ("commit_pc", jsig meta.M.commit_pc);
      ("flush", jsig meta.M.flush);
      ( "ufsms",
        Json.List
          (List.map
             (fun (u : M.ufsm) ->
               Json.Assoc
                 [
                   ("name", jstr u.M.ufsm_name);
                   ("pcr", jsig u.M.pcr);
                   ("vars", jsigs u.M.vars);
                   ( "idle",
                     Json.List
                       (List.map
                          (fun v -> jstr (Bitvec.to_binary_string v))
                          u.M.idle_states) );
                   ( "labels",
                     Json.Assoc
                       (List.map
                          (fun (v, l) -> (Bitvec.to_binary_string v, jstr l))
                          u.M.state_labels) );
                 ])
             meta.M.ufsms) );
      ( "operands",
        Json.Assoc (List.map (fun (k, s) -> (k, jsig s)) meta.M.operand_regs)
      );
      ("arf", jsigs meta.M.arf);
      ("amem", jsigs meta.M.amem);
      ("assumes", jsigs meta.M.extra_assumes);
    ]
