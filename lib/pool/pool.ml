(* Fixed-size domain work pool.  One shared FIFO feeds [jobs - 1] worker
   domains; the caller of a join drains the same queue, so [jobs] domains
   make progress and a pool is never idle while a join is pending.  Nested
   submissions from inside a task run inline (detected via a domain-local
   flag) — a fixed pool that blocked on subtasks it must itself execute
   would deadlock. *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t; (* signalled on enqueue *)
  progress : Condition.t; (* broadcast on task completion *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* True inside a worker domain or inside a caller currently helping drain
   the queue — either way, further submissions must run inline. *)
let inside_task = Domain.DLS.new_key (fun () -> false)

let worker_loop t =
  Domain.DLS.set inside_task true;
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    match Queue.take_opt t.queue with
    | None ->
      (* closed and drained *)
      Mutex.unlock t.mutex
    | Some task ->
      Mutex.unlock t.mutex;
      task ();
      loop ()
  in
  loop ()

let default_jobs () =
  match Sys.getenv_opt "SYNTHLC_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      progress = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Seed mixing: a 63-bit multiply/xor-shift avalanche over (base, index).
   Constants fit OCaml's native int; wrap-around is part of the mix. *)
let derive_seed ~base ~index =
  let m = 0x2545F4914F6CDD1D in
  let z = ref (((base + 1) * m) + ((index + 1) * 0x9E3779B9)) in
  z := !z lxor (!z lsr 29);
  z := !z * m;
  z := !z lxor (!z lsr 32);
  z := !z * 0x27D4EB2F165667C5;
  z := !z lxor (!z lsr 31);
  !z land max_int

type 'b cell = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

let run_inline thunks = List.map (fun f -> f ()) thunks

let run t thunks =
  let n = List.length thunks in
  if n = 0 then []
  else if t.jobs = 1 || n = 1 || Domain.DLS.get inside_task then
    (* Inline path: sequential semantics (a raise stops the batch), used
       for trivial batches and for nested submissions. *)
    run_inline thunks
  else begin
    let results = Array.make n Pending in
    let remaining = ref n in
    let submitted_ns = if Obs.enabled () then Obs.now_ns () else 0 in
    let wrap i f () =
      let traced = Obs.enabled () in
      if traced then begin
        Obs.Metrics.incr "pool.tasks";
        Obs.Metrics.observe "pool.queue_wait_s"
          (float_of_int (Obs.now_ns () - submitted_ns) /. 1e9)
      end;
      let t0 = if traced then Obs.now_ns () else 0 in
      (match f () with
      | v -> results.(i) <- Done v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        results.(i) <- Raised (e, bt));
      if traced then
        Obs.Metrics.observe "pool.task_run_s"
          (float_of_int (Obs.now_ns () - t0) /. 1e9);
      Mutex.lock t.mutex;
      decr remaining;
      Condition.broadcast t.progress;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: submission to a shut-down pool"
    end;
    List.iteri (fun i f -> Queue.add (wrap i f) t.queue) thunks;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* Joining caller helps drain the queue.  Tasks executed here may
       themselves call [run]; flag the domain so those run inline. *)
    let saved = Domain.DLS.get inside_task in
    Domain.DLS.set inside_task true;
    let rec join () =
      Mutex.lock t.mutex;
      if !remaining = 0 then Mutex.unlock t.mutex
      else
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.mutex;
          task ();
          join ()
        | None ->
          Condition.wait t.progress t.mutex;
          Mutex.unlock t.mutex;
          join ()
    in
    Fun.protect ~finally:(fun () -> Domain.DLS.set inside_task saved) join;
    (* Deterministic exception choice: lowest task index wins, matching
       what a sequential run would have raised first. *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Done _ | Pending -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Pending | Raised _ -> assert false (* remaining = 0 *))
         results)
  end

let mapi t ~f xs = run t (List.mapi (fun i x () -> f i x) xs)
let map t ~f xs = run t (List.map (fun x () -> f x) xs)

let map_reduce t ~map:m ~reduce ~init xs =
  List.fold_left reduce init (map t ~f:m xs)
