(* Structured tracing + metrics registry.  See obs.mli for the contract;
   the implementation notes that matter:

   - [enabled] is one Atomic flag; every public entry point checks it
     first and returns without allocating when the layer is off.
   - Events live in a mutex-protected circular buffer (observability must
     never abort a run, so overflow evicts the oldest event instead of
     growing).  Recording happens at span *completion*, so buffer order is
     end-time order; Chrome trace viewers sort by [ts] themselves.
   - Ambient context is per-domain (Domain.DLS): worker domains inherit
     nothing from their spawner, which is exactly right — the engine
     re-establishes task attribution inside each task. *)

external now_ns : unit -> int = "obs_monotonic_ns" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type event = {
  ev_name : string;
  ev_ts_ns : int;
  ev_dur_ns : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

let dummy_event = { ev_name = ""; ev_ts_ns = 0; ev_dur_ns = 0; ev_tid = 0; ev_args = [] }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* --- event ring --------------------------------------------------------- *)

let default_capacity = 65536
let ring : event array ref = ref [||]
let ring_start = ref 0
let ring_len = ref 0
let dropped = ref 0

let push ev =
  locked (fun () ->
      let cap = Array.length !ring in
      if cap = 0 then ()
      else if !ring_len < cap then begin
        !ring.((!ring_start + !ring_len) mod cap) <- ev;
        incr ring_len
      end
      else begin
        !ring.(!ring_start) <- ev;
        ring_start := (!ring_start + 1) mod cap;
        incr dropped
      end)

let events () =
  locked (fun () ->
      let cap = Array.length !ring in
      List.init !ring_len (fun i -> !ring.((!ring_start + i) mod cap)))

let dropped_events () = locked (fun () -> !dropped)

(* --- metrics ------------------------------------------------------------ *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type series = Counter of int ref | Gauge of float ref | Hist of hist

let metrics : (string, series) Hashtbl.t = Hashtbl.create 64

let render_name name labels =
  match labels with
  | [] -> name
  | _ ->
    let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let series_of key mk =
  locked (fun () ->
      match Hashtbl.find_opt metrics key with
      | Some s -> s
      | None ->
        let s = mk () in
        Hashtbl.replace metrics key s;
        s)

module Metrics = struct
  let incr ?(labels = []) ?(by = 1) name =
    if enabled () then
      match series_of (render_name name labels) (fun () -> Counter (ref 0)) with
      | Counter r -> locked (fun () -> r := !r + by)
      | Gauge _ | Hist _ -> ()

  let gauge ?(labels = []) name v =
    if enabled () then
      match series_of (render_name name labels) (fun () -> Gauge (ref 0.)) with
      | Gauge r -> locked (fun () -> r := v)
      | Counter _ | Hist _ -> ()

  let observe ?(labels = []) name v =
    if enabled () then
      match
        series_of (render_name name labels) (fun () ->
            Hist { h_count = 0; h_sum = 0.; h_min = infinity; h_max = neg_infinity })
      with
      | Hist h ->
        locked (fun () ->
            h.h_count <- h.h_count + 1;
            h.h_sum <- h.h_sum +. v;
            if v < h.h_min then h.h_min <- v;
            if v > h.h_max then h.h_max <- v)
      | Counter _ | Gauge _ -> ()

  let snapshot () =
    let rows =
      locked (fun () ->
          Hashtbl.fold
            (fun key s acc ->
              match s with
              | Counter r -> (key, float_of_int !r) :: acc
              | Gauge r -> (key, !r) :: acc
              | Hist h ->
                if h.h_count = 0 then acc
                else
                  (key ^ ".count", float_of_int h.h_count)
                  :: (key ^ ".sum", h.h_sum)
                  :: (key ^ ".mean", h.h_sum /. float_of_int h.h_count)
                  :: (key ^ ".min", h.h_min)
                  :: (key ^ ".max", h.h_max)
                  :: acc)
            metrics [])
    in
    List.sort (fun (a, _) (b, _) -> String.compare a b) rows

  let get name = List.assoc_opt name (snapshot ())
end

(* --- lifecycle ---------------------------------------------------------- *)

let enable ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  locked (fun () ->
      if Array.length !ring <> capacity && !ring_len = 0 then
        ring := Array.make capacity dummy_event
      else if Array.length !ring = 0 then ring := Array.make capacity dummy_event);
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let reset () =
  locked (fun () ->
      ring_start := 0;
      ring_len := 0;
      dropped := 0;
      Array.fill !ring 0 (Array.length !ring) dummy_event;
      Hashtbl.reset metrics)

(* --- ambient context + spans -------------------------------------------- *)

let ctx_key : (string * string) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let with_ctx pairs f =
  if not (enabled ()) then f ()
  else begin
    let saved = Domain.DLS.get ctx_key in
    Domain.DLS.set ctx_key (saved @ pairs);
    Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key saved) f
  end

let tid () = (Domain.self () :> int)

let record name t0 dur args =
  push
    {
      ev_name = name;
      ev_ts_ns = t0;
      ev_dur_ns = dur;
      ev_tid = tid ();
      ev_args = (match Domain.DLS.get ctx_key with [] -> args | ctx -> args @ ctx);
    }

let with_span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> record name t0 (now_ns () - t0) args) f
  end

let instant ?(args = []) name =
  if enabled () then record name (now_ns ()) 0 args

(* --- export ------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Finite-by-construction floats (counters, sums of finite observations);
   %.17g round-trips and never prints nan/inf for these. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let chrome_trace () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"synthlc\"}}";
  List.iter
    (fun e ->
      Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"synthlc\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (json_escape e.ev_name)
           (float_of_int e.ev_ts_ns /. 1000.)
           (float_of_int e.ev_dur_ns /. 1000.)
           e.ev_tid);
      (match e.ev_args with
      | [] -> ()
      | args ->
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          args;
        Buffer.add_char buf '}');
      Buffer.add_char buf '}')
    evs;
  Buffer.add_string buf
    (Printf.sprintf "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":%d}\n"
       (dropped_events ()));
  Buffer.contents buf

let metrics_json () =
  let rows = Metrics.snapshot () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n  \"%s\": %s" (json_escape k) (json_float v)))
    rows;
  Buffer.add_string buf (if rows = [] then "}\n" else "\n}\n");
  Buffer.contents buf

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let write_chrome_trace path = write_file path (chrome_trace ())
let write_metrics_json path = write_file path (metrics_json ())
