type lit = int

let pos v = 2 * v
let neg_of_var v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

type result = Sat | Unsat | Unknown

(* Growable int vector: the trail, its level marks and analyze's scratch. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let shrink v n = v.len <- n
end

(* --- clause store ------------------------------------------------------

   Every clause is a run of words in one store of int chunks: a header
   [size lsl 2 lor flags], its literals, and for a learnt clause its LBD
   and activity bits after them.  A clause is named by the offset of its
   header, [chunk lsl chunk_bits lor position].  Clauses fill the chunks
   next fit in the order they are added (in the current chunk if they fit,
   else at the start of the next; a clause longer than a chunk gets a
   chunk of its own), so offsets grow with age, and [reduce_db] slides the
   survivors down in order. *)

let chunk_bits = 15
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let learnt_flag = 1
let deleted_flag = 2 (* set only between [reduce_db]'s choice and [compact] *)
let size_of h = h lsr 2
let clause_words h = 1 + size_of h + if h land learnt_flag <> 0 then 2 else 0

(* An activity is a non-negative float, whose IEEE bits lie in [0, 2^63);
   less 2^62 they fit an OCaml int exactly. *)
let act_bias = Int64.shift_left 1L 62
let int_of_act a = Int64.to_int (Int64.sub (Int64.bits_of_float a) act_bias)
let act_of_int i = Int64.float_of_bits (Int64.add (Int64.of_int i) act_bias)

type t = {
  mutable chunks : int array array;
  mutable fills : int array; (* words used per chunk *)
  mutable cur : int; (* the chunk new clauses go to *)
  mutable nclauses : int;
  mutable n_learnt : int; (* learnt clauses currently in the store *)
  mutable wdata : int array array;
      (* per literal: offsets of the clauses to visit when it turns true *)
  mutable wlen : int array;
  mutable vals : Bytes.t; (* per literal: 0 undef, 1 true, 2 false *)
  mutable level : int array;
  mutable reason : int array; (* clause offset or -1 *)
  mutable phase : bool array;
  mutable activity : float array;
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_pos : int array; (* -1 when not in heap *)
  mutable heap_len : int;
  mutable trail : Vec.t;
  mutable trail_lim : Vec.t;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once the empty clause was derived *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learnt_limit : int; (* reduce_db trigger; grows geometrically *)
  mutable reduces : int; (* reduce_db events *)
  mutable learnt_peak : int; (* high-water mark of n_learnt *)
  mutable has_model : bool; (* last solve ended Sat and no solve undid it *)
  seen : Vec.t; (* scratch for analyze: vars marked *)
  mutable seen_arr : bool array; (* persistent analyze marks, cleared via seen *)
  mutable lbd_seen : int array; (* per-level stamps for LBD computation *)
  mutable lbd_stamp : int;
  learnt : Vec.t; (* analyze's output: the clause it learns *)
}

let create () =
  {
    chunks = [| [||] |];
    fills = [| 0 |];
    cur = 0;
    nclauses = 0;
    n_learnt = 0;
    wdata = Array.make 16 [||];
    wlen = Array.make 16 0;
    vals = Bytes.make 16 '\000';
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    phase = Array.make 8 false;
    activity = Array.make 8 0.;
    heap = Array.make 8 0;
    heap_pos = Array.make 8 (-1);
    heap_len = 0;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learnt_limit = 4096;
    reduces = 0;
    learnt_peak = 0;
    has_model = false;
    seen = Vec.create ();
    seen_arr = Array.make 8 false;
    lbd_seen = Array.make 8 0;
    lbd_stamp = 0;
    learnt = Vec.create ();
  }

let nvars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_learnts s = s.n_learnt
let num_reduces s = s.reduces
let learnt_peak s = s.learnt_peak
let learnt_limit s = s.learnt_limit
let set_learnt_limit s n = s.learnt_limit <- max 1 n
let has_model s = s.has_model

let grow_arrays s n =
  let cap = Array.length s.level in
  if n > cap then begin
    let newcap = max n (2 * cap) in
    let grow a def =
      let a' = Array.make newcap def in
      Array.blit a 0 a' 0 cap;
      a'
    in
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.phase <- grow s.phase false;
    s.activity <- grow s.activity 0.;
    s.heap <- grow s.heap 0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.seen_arr <- grow s.seen_arr false;
    s.lbd_seen <- grow s.lbd_seen 0;
    let grow2 a def =
      let a' = Array.make (2 * newcap) def in
      Array.blit a 0 a' 0 (2 * cap);
      a'
    in
    s.wdata <- grow2 s.wdata [||];
    s.wlen <- grow2 s.wlen 0;
    let vals = Bytes.make (2 * newcap) '\000' in
    Bytes.blit s.vals 0 vals 0 (2 * cap);
    s.vals <- vals
  end

(* --- activity heap --------------------------------------------------- *)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vi) <- j;
  s.heap_pos.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_len && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  if s.heap_len > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_len);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  s.heap_pos.(v) <- -1;
  v

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s s.nvars;
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.phase.(v) <- false;
  s.activity.(v) <- 0.;
  heap_insert s v;
  v

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- clause store access ----------------------------------------------- *)

let chunk_of s off = s.chunks.(off lsr chunk_bits)
let pos_of off = off land chunk_mask

(* [f off] on every clause, in store order. *)
let iter_clauses s f =
  for c = 0 to s.cur do
    let a = s.chunks.(c) in
    let p = ref 0 in
    while !p < s.fills.(c) do
      f ((c lsl chunk_bits) lor !p);
      p := !p + clause_words a.(!p)
    done
  done

(* A learnt clause's LBD and activity sit after its literals. *)
let lbd_slot a p = p + 1 + size_of a.(p)
let activity s off =
  let a = chunk_of s off and p = pos_of off in
  act_of_int a.(lbd_slot a p + 1)

(* Reserve [words] words at the end of the store; returns their offset.
   Chunk 0 grows by doubling, so a small instance stays small; later
   chunks are allocated whole. *)
let alloc s words =
  let c =
    let f = s.fills.(s.cur) in
    if f = 0 || f + words <= chunk_size then s.cur
    else begin
      let c = s.cur + 1 in
      if c = Array.length s.chunks then begin
        let grow a def = Array.init (2 * c) (fun i -> if i < c then a.(i) else def) in
        s.chunks <- grow s.chunks [||];
        s.fills <- grow s.fills 0
      end;
      s.cur <- c;
      s.fills.(c) <- 0;
      c
    end
  in
  let f = s.fills.(c) and a = s.chunks.(c) in
  if f + words > Array.length a then begin
    let cap =
      if c = 0 then min chunk_size (max 64 (2 * Array.length a)) else chunk_size
    in
    let a' = Array.make (max (f + words) cap) 0 in
    Array.blit a 0 a' 0 f;
    s.chunks.(c) <- a'
  end;
  s.fills.(c) <- f + words;
  (c lsl chunk_bits) lor f

(* Watch lists are allocated on their first push. *)
let watch s l off =
  let n = s.wlen.(l) and d = s.wdata.(l) in
  if n = Array.length d then begin
    let d' = Array.make (max 4 (2 * n)) 0 in
    Array.blit d 0 d' 0 n;
    d'.(n) <- off;
    s.wdata.(l) <- d'
  end
  else d.(n) <- off;
  s.wlen.(l) <- n + 1

(* Store the clause [lits.(0 .. n-1)] (n >= 2) and watch its first two
   literals; returns its offset. *)
let attach s lits n ~learnt ~lbd =
  let off = alloc s (1 + n + if learnt then 2 else 0) in
  let a = chunk_of s off and p = pos_of off in
  a.(p) <- (n lsl 2) lor if learnt then learnt_flag else 0;
  Array.blit lits 0 a (p + 1) n;
  s.nclauses <- s.nclauses + 1;
  if learnt then begin
    a.(p + 1 + n) <- lbd;
    a.(p + 2 + n) <- int_of_act 0.;
    s.n_learnt <- s.n_learnt + 1;
    if s.n_learnt > s.learnt_peak then s.learnt_peak <- s.n_learnt
  end;
  watch s (negate lits.(0)) off;
  watch s (negate lits.(1)) off;
  off

let bump_clause s off =
  let a = chunk_of s off in
  let i = lbd_slot a (pos_of off) + 1 in
  let act = act_of_int a.(i) +. s.cla_inc in
  a.(i) <- int_of_act act;
  if act > 1e20 then begin
    iter_clauses s (fun off ->
        let a = chunk_of s off and p = pos_of off in
        if a.(p) land learnt_flag <> 0 then begin
          let i = lbd_slot a p + 1 in
          a.(i) <- int_of_act (act_of_int a.(i) *. 1e-20)
        end);
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* --- assignment ------------------------------------------------------ *)

let lit_val s l = Bytes.get_uint8 s.vals l
let decision_level s = Vec.len s.trail_lim

let enqueue s l reason =
  let v = var_of l in
  Bytes.set_uint8 s.vals l 1;
  Bytes.set_uint8 s.vals (negate l) 2;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- is_pos l;
  Vec.push s.trail l

(* Sort and simplify the clause in the one array it is copied to (drop
   duplicates and literals false at level 0; a tautology or a literal true
   at level 0 drops the whole clause), then add it. *)
let add_clause s lits =
  if s.ok then begin
    let a = Array.of_list lits in
    Array.sort Int.compare a;
    let at0 = decision_level s = 0 in
    let n = ref 0 and drop = ref false in
    for i = 0 to Array.length a - 1 do
      (* [a.(i - 1)] still holds its sorted value: writes go to [!n <= i]. *)
      let l = a.(i) in
      if i > 0 && a.(i - 1) = l then ()
      else if (i > 0 && a.(i - 1) = negate l) || (at0 && lit_val s l = 1) then
        (* Once sorted, a literal and its negation are adjacent. *)
        drop := true
      else if not (at0 && lit_val s l = 2) then begin
        a.(!n) <- l;
        incr n
      end
    done;
    if not !drop then
      match !n with
      | 0 -> s.ok <- false
      | 1 ->
        let l = a.(0) in
        if lit_val s l = 2 then s.ok <- false
        else if lit_val s l = 0 then enqueue s l (-1)
      | n -> ignore (attach s a n ~learnt:false ~lbd:0)
  end

(* --- propagation ------------------------------------------------------ *)

(* Propagate all enqueued literals.  Returns the conflicting clause's
   offset, or -1 when no conflict arises. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < Vec.len s.trail do
    let l = Vec.get s.trail s.qhead in
    let fl = negate l in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* No push below lands on [l]'s own list: a new watch is a literal not
       false, and [fl] is. *)
    let ws = s.wdata.(l) in
    let n = s.wlen.(l) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let off = ws.(!i) in
      incr i;
      let c = chunk_of s off in
      let p = pos_of off + 1 in
      (* Ensure the false literal [fl] is at position 1. *)
      if c.(p) = fl then begin
        c.(p) <- c.(p + 1);
        c.(p + 1) <- fl
      end;
      let first = c.(p) in
      if lit_val s first = 1 then begin
        (* Clause already satisfied; keep the watch. *)
        ws.(!j) <- off;
        incr j
      end
      else begin
        (* Look for a new literal to watch. *)
        let stop = p + size_of c.(p - 1) in
        let k = ref (p + 2) in
        while !k < stop && lit_val s c.(!k) = 2 do
          incr k
        done;
        if !k < stop then begin
          let q = c.(!k) in
          c.(p + 1) <- q;
          c.(!k) <- fl;
          watch s (negate q) off
        end
        else begin
          (* Unit or conflicting. *)
          ws.(!j) <- off;
          incr j;
          if lit_val s first = 2 then begin
            (* Conflict: keep the remaining watches and stop. *)
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr j;
              incr i
            done;
            s.qhead <- Vec.len s.trail;
            confl := off
          end
          else enqueue s first off
        end
      end
    done;
    s.wlen.(l) <- !j
  done;
  !confl

(* --- conflict analysis ------------------------------------------------ *)

(* First-UIP learning.  Leaves the learnt clause in [s.learnt]: the
   asserting literal, then the others in reverse visiting order; returns
   the backjump level. *)
let analyze s confl =
  (* Marks live in the persistent [seen_arr]; every var marked is recorded
     in the [seen] vec and cleared before returning, so no per-conflict
     allocation happens on this path. *)
  let seen = s.seen_arr in
  Vec.shrink s.seen 0;
  let out = s.learnt in
  Vec.shrink out 0;
  Vec.push out 0 (* the asserting literal's slot *);
  let counter = ref 0 in
  let p = ref (-1) in
  (* -1 means "take all literals of the conflict clause" *)
  let cid = ref confl in
  let idx = ref (Vec.len s.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let a = chunk_of s !cid and hp = pos_of !cid in
    if a.(hp) land learnt_flag <> 0 then bump_clause s !cid;
    let start = if !p = -1 then hp + 1 else hp + 2 in
    for k = start to hp + size_of a.(hp) do
      let q = a.(k) in
      let v = var_of q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        Vec.push s.seen v;
        bump_var s v;
        if s.level.(v) = decision_level s then incr counter
        else begin
          Vec.push out q;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* Find the next marked literal on the trail. *)
    let rec next () =
      let l = Vec.get s.trail !idx in
      decr idx;
      if seen.(var_of l) then l else next ()
    in
    let l = next () in
    p := l;
    seen.(var_of l) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else cid := s.reason.(var_of l)
  done;
  (* Clear the remaining marks (the UIP-path vars were already unset). *)
  for i = 0 to Vec.len s.seen - 1 do
    seen.(Vec.get s.seen i) <- false
  done;
  Vec.set out 0 (negate !p);
  let i = ref 1 and j = ref (Vec.len out - 1) in
  while !i < !j do
    let x = Vec.get out !i in
    Vec.set out !i (Vec.get out !j);
    Vec.set out !j x;
    incr i;
    decr j
  done;
  !btlevel

(* LBD (glue) of the learnt clause: the number of distinct decision levels
   among its literals, computed before backjumping (levels still valid).
   Stamp-based so repeated calls cost O(|clause|) with no allocation. *)
let compute_lbd s =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let n = ref 0 in
  for i = 0 to Vec.len s.learnt - 1 do
    let lv = s.level.(var_of (Vec.get s.learnt i)) in
    if lv > 0 && s.lbd_seen.(lv) <> stamp then begin
      s.lbd_seen.(lv) <- stamp;
      incr n
    end
  done;
  max 1 !n

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.len s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      Bytes.set_uint8 s.vals l 0;
      Bytes.set_uint8 s.vals (negate l) 0;
      s.reason.(var_of l) <- -1;
      heap_insert s (var_of l)
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.len s.trail
  end

(* --- learnt-clause DB reduction ---------------------------------------- *)

(* A clause is locked while it is the reason for a current assignment; its
   implied literal sits at position 0 for as long as the assignment stands
   (propagation only repositions false literals), so the check is O(1). *)
let locked s off =
  let v = var_of (chunk_of s off).(pos_of off + 1) in
  lit_val s (pos v) <> 0 && s.reason.(v) = off

(* Slide every clause not marked deleted down to where next fit puts it
   without the deleted ones.  Offsets keep their order and only fall, so a
   clause never overwrites one not yet moved.  A locked clause takes its
   reason along. *)
let compact s =
  let last = s.cur in
  let fills = Array.sub s.fills 0 (last + 1) in
  s.cur <- 0;
  s.fills.(0) <- 0;
  for c = 0 to last do
    let a = s.chunks.(c) in
    let p = ref 0 in
    while !p < fills.(c) do
      let h = a.(!p) in
      let words = clause_words h in
      if h land deleted_flag = 0 then begin
        let off = (c lsl chunk_bits) lor !p in
        let v = var_of a.(!p + 1) and locked = locked s off in
        let off' = alloc s words in
        Array.blit a !p (chunk_of s off') (pos_of off') words;
        if locked then s.reason.(v) <- off'
      end;
      p := !p + words
    done
  done;
  for c = s.cur + 1 to last do
    s.chunks.(c) <- [||];
    s.fills.(c) <- 0
  done

(* Halve the learnt-clause DB, keeping binary clauses, glue clauses
   (lbd <= 2), and locked clauses unconditionally; the rest are ranked by
   (activity, lbd, age) and the worse half deleted.  The store is
   compacted in place and every watch list rebuilt in store order with the
   surviving clauses' current watch positions.  Callable at any
   propagation fixpoint. *)
let reduce_db s =
  let removable = Vec.create () in
  iter_clauses s (fun off ->
      let a = chunk_of s off and p = pos_of off in
      if
        a.(p) land learnt_flag <> 0
        && size_of a.(p) > 2
        && a.(lbd_slot a p) > 2
        && not (locked s off)
      then Vec.push removable off);
  let arr = Array.sub removable.Vec.data 0 (Vec.len removable) in
  let lbd off =
    let a = chunk_of s off in
    a.(lbd_slot a (pos_of off))
  in
  (* Worst first: lowest activity, then highest lbd, then oldest — a total
     order, so reduction is deterministic. *)
  Array.sort
    (fun x y ->
      let c = Float.compare (activity s x) (activity s y) in
      if c <> 0 then c
      else
        let c = Int.compare (lbd y) (lbd x) in
        if c <> 0 then c else Int.compare x y)
    arr;
  let ndrop = Array.length arr / 2 in
  if ndrop > 0 then begin
    for i = 0 to ndrop - 1 do
      let a = chunk_of s arr.(i) and p = pos_of arr.(i) in
      a.(p) <- a.(p) lor deleted_flag
    done;
    compact s;
    s.nclauses <- s.nclauses - ndrop;
    s.n_learnt <- s.n_learnt - ndrop;
    Array.fill s.wlen 0 (Array.length s.wlen) 0;
    iter_clauses s (fun off ->
        let a = chunk_of s off and p = pos_of off in
        watch s (negate a.(p + 1)) off;
        watch s (negate a.(p + 2)) off);
    s.reduces <- s.reduces + 1
  end

(* --- search ------------------------------------------------------------ *)

let pick_branch s =
  let rec go () =
    if s.heap_len = 0 then -1
    else
      let v = heap_pop s in
      if lit_val s (pos v) = 0 then v else go ()
  in
  go ()

let luby i =
  (* Luby sequence: 1 1 2 1 1 2 4 ... *)
  let rec go k i =
    if i = (1 lsl k) - 1 then 1 lsl (k - 1)
    else if i < (1 lsl (k - 1)) - 1 then go (k - 1) i
    else go (k - 1) (i - ((1 lsl (k - 1)) - 1))
  in
  let rec size k = if i < (1 lsl k) - 1 then k else size (k + 1) in
  go (size 1) i

(* Luby unit: conflicts per restart are [restart_base * luby i]. *)
let restart_base = 100

let solve ?(assumptions = []) ?(max_conflicts = max_int) s =
  s.has_model <- false;
  if not s.ok then Unsat
  else begin
    let assumps = Array.of_list assumptions in
    let start_conflicts = s.conflicts in
    let result = ref None in
    let restart_idx = ref 0 in
    let conflicts_this_restart = ref 0 in
    let restart_limit = ref (restart_base * luby 1) in
    (* Scale the reduce trigger with the problem: a big unrolling earns a
       proportionally larger learnt DB before the first reduction. *)
    s.learnt_limit <- max s.learnt_limit ((s.nclauses - s.n_learnt) / 2);
    (match propagate s with
    | -1 -> ()
    | _ -> begin s.ok <- false; result := Some Unsat end);
    while !result = None do
      let confl = propagate s in
      if confl >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_this_restart;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else if s.conflicts - start_conflicts > max_conflicts then
          result := Some Unknown
        else begin
          let btlevel = analyze s confl in
          let lbd = compute_lbd s in
          cancel_until s btlevel;
          let out = s.learnt in
          let l = Vec.get out 0 in
          if Vec.len out = 1 then enqueue s l (-1)
          else begin
            (* Position a literal of btlevel at index 1 for correct watching. *)
            let pos1 = ref 1 in
            for k = 1 to Vec.len out - 1 do
              if s.level.(var_of (Vec.get out k)) > s.level.(var_of (Vec.get out !pos1))
              then pos1 := k
            done;
            let tmp = Vec.get out 1 in
            Vec.set out 1 (Vec.get out !pos1);
            Vec.set out !pos1 tmp;
            let off = attach s out.Vec.data (Vec.len out) ~learnt:true ~lbd in
            enqueue s l off
          end;
          s.var_inc <- s.var_inc /. 0.95;
          s.cla_inc <- s.cla_inc /. 0.999
        end
      end
      else if s.n_learnt >= s.learnt_limit then begin
        (* Propagation fixpoint: safe to halve the learnt DB in place.  The
           limit grows geometrically so reductions get rarer as the search
           earns its keepers. *)
        reduce_db s;
        s.learnt_limit <- s.learnt_limit + max 1 (s.learnt_limit / 2)
      end
      else if
        !conflicts_this_restart >= !restart_limit && decision_level s > Array.length assumps
      then begin
        (* Restart, keeping the assumption prefix. *)
        conflicts_this_restart := 0;
        incr restart_idx;
        restart_limit := restart_base * luby (!restart_idx + 1);
        cancel_until s (min (decision_level s) (Array.length assumps))
      end
      else begin
        (* Decide: first re-establish pending assumptions, then branch. *)
        let dl = decision_level s in
        if dl < Array.length assumps then begin
          let a = assumps.(dl) in
          match lit_val s a with
          | 1 ->
            (* Already true: open an empty decision level. *)
            Vec.push s.trail_lim (Vec.len s.trail)
          | 2 -> result := Some Unsat (* assumptions are contradictory *)
          | _ ->
            Vec.push s.trail_lim (Vec.len s.trail);
            s.decisions <- s.decisions + 1;
            enqueue s a (-1)
        end
        else begin
          let v = pick_branch s in
          if v < 0 then result := Some Sat
          else begin
            Vec.push s.trail_lim (Vec.len s.trail);
            s.decisions <- s.decisions + 1;
            let l = if s.phase.(v) then pos v else neg_of_var v in
            enqueue s l (-1)
          end
        end
      end
    done;
    (* For Sat we keep the trail so [value] can read the model, but reset
       the decision stack before the next call. *)
    (match !result with
    | Some Sat ->
      (* Snapshot model into phase (phase saving already updated on enqueue),
         then backtrack. *)
      for v = 0 to s.nvars - 1 do
        match lit_val s (pos v) with
        | 0 -> ()
        | a -> s.phase.(v) <- a = 1
      done;
      s.has_model <- true;
      cancel_until s 0
    | _ -> cancel_until s 0);
    match !result with Some r -> r | None -> assert false
  end

let value s v =
  if not s.has_model then
    invalid_arg "Solver.value: no model (last result was not Sat)";
  s.phase.(v)

let lit_value s l =
  if not s.has_model then
    invalid_arg "Solver.lit_value: no model (last result was not Sat)";
  if is_pos l then s.phase.(var_of l) else not s.phase.(var_of l)
