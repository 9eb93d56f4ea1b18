type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  signal : int option;
  signal_name : string option;
  message : string;
}

type report = { design : string; diags : t list }

let make ?signal ?signal_name ~code ~severity message =
  { code; severity; signal; signal_name; message }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let counts diags =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) diags

let exit_code reports =
  let e, w =
    List.fold_left
      (fun (e, w) r ->
        let e', w', _ = counts r.diags in
        (e + e', w + w'))
      (0, 0) reports
  in
  if e > 0 then 2 else if w > 0 then 1 else 0

(* Codes are namespaced by prefix (see the .mli); the pass name is derivable
   from the code alone, which keeps the JSON self-describing without
   threading pass identity through every emit site. *)
let pass_of_code code =
  if String.length code < 2 then "unknown"
  else
    match (code.[0], code.[1]) with
    | 'L', '0' -> "structural"
    | 'L', '1' -> "annotations"
    | 'L', '2' -> "reach"
    | 'T', '3' -> "taintflow"
    | 'A', '4' -> "knownbits"
    | 'F', '5' -> "frontend"
    | _ -> "unknown"

(* One-line catalogue entries: what the rule means, independent of the
   instance-specific message.  CI dashboards group on these. *)
let rule_summary = function
  | "L001" -> "combinational cycle"
  | "L002" -> "unconnected register or wire"
  | "L003" -> "width mismatch in extract/concat/mux"
  | "L004" -> "dead cell outside every cone of influence"
  | "L005" -> "constant-foldable logic"
  | "L006" -> "annotated signal is unnamed"
  | "L007" -> "input drives no logic"
  | "L101" -> "annotation refers outside the netlist"
  | "L102" -> "annotated signal has the wrong width"
  | "L103" -> "malformed uFSM declaration"
  | "L104" -> "duplicate or idle-state uFSM label"
  | "L105" -> "IFT annotation target is not a register"
  | "L106" -> "uFSM declares no idle state"
  | "L201" -> "unlabelled uFSM states statically unreachable"
  | "L202" -> "labelled uFSM state statically unreachable"
  | "L203" -> "abstract reachability did not converge"
  | "T301" -> "operand taint reaches no uFSM state"
  | "T302" -> "blocker blocks nothing"
  | "T303" -> "persistent register outside every taint cone"
  | "T304" -> "taint inject/block target unconnected"
  | "T305" -> "enabled register defeats IFT instrumentation"
  | "A401" -> "signal stuck at one value in every reachable state"
  | "A402" -> "mux select invariant: one arm is dead"
  | "A403" -> "comparison outcome is foregone"
  | "A404" -> "extract discards bits proven 1"
  | "A405" -> "register never toggles from reset"
  | "A406" -> "register enable proven always 1"
  | "F501" -> "unsupported cell type in imported netlist"
  | "F502" -> "malformed netlist JSON"
  | "F503" -> "clock discipline violation"
  | "F504" -> "x/z constant bit treated as 0"
  | "F505" -> "undriven net consumed by a cell"
  | "F506" -> "net driven by more than one cell"
  | "F507" -> "combinational cycle among imported cells"
  | "F508" -> "imported netlist failed validation"
  | "F509" -> "netname not representable on the word-level IR"
  | "F510" -> "sidecar names an unknown signal"
  | "F511" -> "malformed metadata sidecar"
  | "F512" -> "malformed cell connection or parameter"
  | "F513" -> "fetch slots with no stimulus to pin the IUV"
  | _ -> "unknown rule"

let where d =
  match (d.signal_name, d.signal) with
  | Some nm, Some s -> Printf.sprintf "%s (node %d): " nm s
  | Some nm, None -> nm ^ ": "
  | None, Some s -> Printf.sprintf "node %d: " s
  | None, None -> ""

let pp_report ppf r =
  let e, w, i = counts r.diags in
  Format.fprintf ppf "%s: %d error(s), %d warning(s), %d info(s)" r.design e w i;
  List.iter
    (fun d ->
      Format.fprintf ppf "@\n  %s %-7s %s%s" d.code
        (severity_name d.severity)
        (where d) d.message)
    r.diags;
  Format.fprintf ppf "@\n"

(* Hand-rolled JSON writer (the repo carries no JSON dependency). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json reports =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "[";
  List.iteri
    (fun ri r ->
      if ri > 0 then add ",";
      let e, w, i = counts r.diags in
      add "\n  {\"design\": \"%s\", \"errors\": %d, \"warnings\": %d, \"infos\": %d,\n   \"diagnostics\": ["
        (json_escape r.design) e w i;
      List.iteri
        (fun di d ->
          if di > 0 then add ",";
          add "\n    {\"code\": \"%s\", \"pass\": \"%s\", \"rule\": \"%s\", \"severity\": \"%s\", "
            (json_escape d.code)
            (json_escape (pass_of_code d.code))
            (json_escape (rule_summary d.code))
            (severity_name d.severity);
          (match d.signal with
          | Some s -> add "\"signal\": %d, " s
          | None -> add "\"signal\": null, ");
          (match d.signal_name with
          | Some nm -> add "\"signal_name\": \"%s\", " (json_escape nm)
          | None -> add "\"signal_name\": null, ");
          add "\"message\": \"%s\"}" (json_escape d.message))
        r.diags;
      if r.diags <> [] then add "\n   ";
      add "]}")
    reports;
  add "\n]\n";
  Buffer.contents buf
