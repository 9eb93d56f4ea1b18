type lit = int

let pos v = 2 * v
let neg_of_var v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

type result = Sat | Unsat | Unknown

(* Growable int-array vector used for watch lists and the clause arena. *)
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

type clause = {
  lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable lbd : int;
      (* Literal block distance at learning time: the number of distinct
         decision levels among the clause's literals — the Glucose "glue"
         quality metric.  0 for problem clauses. *)
}

type t = {
  mutable clauses : clause array; (* arena; index = clause id *)
  mutable nclauses : int;
  mutable n_learnt : int; (* learnt clauses currently in the arena *)
  mutable watches : Vec.t array; (* per literal *)
  mutable assigns : int array; (* per var: 0 undef, 1 true, 2 false *)
  mutable level : int array;
  mutable reason : int array; (* clause id or -1 *)
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
  mutable seen : Vec.t; (* scratch for analyze: vars marked *)
  mutable seen_arr : bool array; (* persistent analyze marks, cleared via seen *)
  mutable lbd_seen : int array; (* per-level stamps for LBD computation *)
  mutable lbd_stamp : int;
}

let create () =
  {
    clauses = Array.make 16 { lits = [||]; activity = 0.; learnt = false; lbd = 0 };
    nclauses = 0;
    n_learnt = 0;
    watches = Array.init 16 (fun _ -> Vec.create ());
    assigns = Array.make 8 0;
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
  let cap = Array.length s.assigns in
  if n > cap then begin
    let newcap = max n (2 * cap) in
    let copy_int a def =
      let a' = Array.make newcap def in
      Array.blit a 0 a' 0 cap; a'
    in
    let copy_float a =
      let a' = Array.make newcap 0. in
      Array.blit a 0 a' 0 cap; a'
    in
    let copy_bool a =
      let a' = Array.make newcap false in
      Array.blit a 0 a' 0 cap; a'
    in
    s.assigns <- copy_int s.assigns 0;
    s.level <- copy_int s.level 0;
    s.reason <- copy_int s.reason (-1);
    s.phase <- copy_bool s.phase;
    s.activity <- copy_float s.activity;
    s.heap <- copy_int s.heap 0;
    s.seen_arr <- copy_bool s.seen_arr;
    s.lbd_seen <- copy_int s.lbd_seen 0;
    let hp = Array.make newcap (-1) in
    Array.blit s.heap_pos 0 hp 0 cap;
    s.heap_pos <- hp
  end;
  let wcap = Array.length s.watches in
  if 2 * n > wcap then begin
    let w =
      Array.init (max (2 * n) (2 * wcap)) (fun i ->
          if i < wcap then s.watches.(i) else Vec.create ())
    in
    s.watches <- w
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
  s.assigns.(v) <- 0;
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

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to s.nclauses - 1 do
      let ci = s.clauses.(i) in
      if ci.learnt then ci.activity <- ci.activity *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(* --- assignment ------------------------------------------------------ *)

let lit_val s l =
  (* 0 undef, 1 true, 2 false for the literal *)
  let a = s.assigns.(var_of l) in
  if a = 0 then 0
  else if (a = 1) = is_pos l then 1
  else 2

let decision_level s = Vec.len s.trail_lim

let enqueue s l reason =
  s.assigns.(var_of l) <- (if is_pos l then 1 else 2);
  s.level.(var_of l) <- decision_level s;
  s.reason.(var_of l) <- reason;
  s.phase.(var_of l) <- is_pos l;
  Vec.push s.trail l

let add_clause_internal s lits learnt lbd =
  let c = { lits; activity = 0.; learnt; lbd } in
  if s.nclauses = Array.length s.clauses then begin
    let a = Array.make (2 * s.nclauses) c in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  let id = s.nclauses in
  s.clauses.(id) <- c;
  s.nclauses <- id + 1;
  if learnt then begin
    s.n_learnt <- s.n_learnt + 1;
    if s.n_learnt > s.learnt_peak then s.learnt_peak <- s.n_learnt
  end;
  Vec.push s.watches.(negate lits.(0)) id;
  Vec.push s.watches.(negate lits.(1)) id;
  id

(* Simplify a problem clause against the level-0 assignment and add it. *)
let add_clause s lits =
  if s.ok then begin
    (* Simplify: drop duplicates and false lits at level 0; detect tautology. *)
    let lits = List.sort_uniq Int.compare lits in
    let taut = List.exists (fun l -> List.mem (negate l) lits) lits in
    if not taut then begin
      let lits =
        List.filter (fun l -> not (decision_level s = 0 && lit_val s l = 2)) lits
      in
      if List.exists (fun l -> decision_level s = 0 && lit_val s l = 1) lits
      then ()
      else
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
          if lit_val s l = 2 then s.ok <- false
          else if lit_val s l = 0 then enqueue s l (-1)
        | _ ->
          let arr = Array.of_list lits in
          ignore (add_clause_internal s arr false 0)
    end
  end

(* --- propagation ------------------------------------------------------ *)

exception Conflict of int

(* Propagate all enqueued literals.  Returns the conflicting clause id, or
   -1 when no conflict arises. *)
let propagate s =
  try
    while s.qhead < Vec.len s.trail do
      let l = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let ws = s.watches.(l) in
      let n = Vec.len ws in
      let j = ref 0 in
      (let i = ref 0 in
       while !i < n do
         let cid = Vec.get ws !i in
         incr i;
         let c = s.clauses.(cid).lits in
         (* Ensure the false literal (negate l) is at position 1. *)
         if c.(0) = negate l then begin
           c.(0) <- c.(1);
           c.(1) <- negate l
         end;
         if lit_val s c.(0) = 1 then begin
           (* Clause already satisfied; keep the watch. *)
           Vec.set ws !j cid;
           incr j
         end
         else begin
           (* Look for a new literal to watch. *)
           let found = ref false in
           let k = ref 2 in
           let len = Array.length c in
           while (not !found) && !k < len do
             if lit_val s c.(!k) <> 2 then begin
               c.(1) <- c.(!k);
               c.(!k) <- negate l;
               Vec.push s.watches.(negate c.(1)) cid;
               found := true
             end;
             incr k
           done;
           if not !found then begin
             (* Unit or conflicting. *)
             Vec.set ws !j cid;
             incr j;
             if lit_val s c.(0) = 2 then begin
               (* Conflict: copy remaining watches and bail out. *)
               while !i < n do
                 Vec.set ws !j (Vec.get ws !i);
                 incr j;
                 incr i
               done;
               Vec.shrink ws !j;
               s.qhead <- Vec.len s.trail;
               raise (Conflict cid)
             end
             else enqueue s c.(0) cid
           end
         end
       done;
       Vec.shrink ws !j)
    done;
    -1
  with Conflict cid -> cid

(* --- conflict analysis ------------------------------------------------ *)

let analyze s confl =
  (* Marks live in the persistent [seen_arr]; every var marked is recorded
     in the [seen] vec and cleared before returning, so no per-conflict
     allocation happens on this path. *)
  let seen = s.seen_arr in
  Vec.shrink s.seen 0;
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  (* -1 means "take all literals of the conflict clause" *)
  let cid = ref confl in
  let idx = ref (Vec.len s.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!cid) in
    if c.learnt then bump_clause s c;
    let lits = c.lits in
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length lits - 1 do
      let q = lits.(k) in
      let v = var_of q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        Vec.push s.seen v;
        bump_var s v;
        if s.level.(v) = decision_level s then incr counter
        else begin
          learnt := q :: !learnt;
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
  (negate !p :: !learnt, !btlevel)

(* LBD (glue) of a learnt clause: the number of distinct decision levels
   among its literals, computed before backjumping (levels still valid).
   Stamp-based so repeated calls cost O(|clause|) with no allocation. *)
let compute_lbd s lits =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let n = ref 0 in
  List.iter
    (fun l ->
      let lv = s.level.(var_of l) in
      if lv > 0 && s.lbd_seen.(lv) <> stamp then begin
        s.lbd_seen.(lv) <- stamp;
        incr n
      end)
    lits;
  max 1 !n

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.len s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of l in
      s.assigns.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.len s.trail
  end

(* --- learnt-clause DB reduction ---------------------------------------- *)

(* A clause is locked while it is the reason for a current assignment; its
   implied literal sits at position 0 for as long as the assignment stands
   (propagation only repositions false literals), so the check is O(1). *)
let locked s cid =
  let c = s.clauses.(cid) in
  Array.length c.lits > 0
  &&
  let v = var_of c.lits.(0) in
  s.assigns.(v) <> 0 && s.reason.(v) = cid

(* Halve the learnt-clause DB, keeping binary clauses, glue clauses
   (lbd <= 2), and locked clauses unconditionally; the rest are ranked by
   (activity, lbd, id) and the worse half deleted.  The arena is compacted
   in place: reasons are remapped through the old->new id map and every
   watch list is rebuilt with the surviving clauses' current watch
   positions, which restores the exact pre-reduction watch structure minus
   the deleted clauses.  Callable at any propagation fixpoint. *)
let reduce_db s =
  let removable = ref [] in
  for cid = 0 to s.nclauses - 1 do
    let c = s.clauses.(cid) in
    if c.learnt && Array.length c.lits > 2 && c.lbd > 2 && not (locked s cid)
    then removable := cid :: !removable
  done;
  let arr = Array.of_list !removable in
  (* Worst first: lowest activity, then highest lbd, then lowest id — a
     total order, so reduction is deterministic. *)
  Array.sort
    (fun a b ->
      let ca = s.clauses.(a) and cb = s.clauses.(b) in
      let c = compare ca.activity cb.activity in
      if c <> 0 then c
      else
        let c = compare cb.lbd ca.lbd in
        if c <> 0 then c else compare a b)
    arr;
  let ndrop = Array.length arr / 2 in
  if ndrop > 0 then begin
    let drop = Array.make s.nclauses false in
    for i = 0 to ndrop - 1 do
      drop.(arr.(i)) <- true
    done;
    let map = Array.make s.nclauses (-1) in
    let j = ref 0 in
    for cid = 0 to s.nclauses - 1 do
      if not drop.(cid) then begin
        map.(cid) <- !j;
        s.clauses.(!j) <- s.clauses.(cid);
        incr j
      end
    done;
    s.nclauses <- !j;
    s.n_learnt <- s.n_learnt - ndrop;
    for v = 0 to s.nvars - 1 do
      if s.reason.(v) >= 0 then s.reason.(v) <- map.(s.reason.(v))
    done;
    Array.iter (fun w -> Vec.shrink w 0) s.watches;
    for cid = 0 to s.nclauses - 1 do
      let lits = s.clauses.(cid).lits in
      Vec.push s.watches.(negate lits.(0)) cid;
      Vec.push s.watches.(negate lits.(1)) cid
    done;
    s.reduces <- s.reduces + 1
  end

(* --- search ------------------------------------------------------------ *)

let pick_branch s =
  let rec go () =
    if s.heap_len = 0 then -1
    else
      let v = heap_pop s in
      if s.assigns.(v) = 0 then v else go ()
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
          let learnt, btlevel = analyze s confl in
          let lbd = compute_lbd s learnt in
          cancel_until s btlevel;
          (match learnt with
          | [] -> begin s.ok <- false; result := Some Unsat end
          | [ l ] -> enqueue s l (-1)
          | l :: _ ->
            let arr = Array.of_list learnt in
            (* Position a literal of btlevel at index 1 for correct watching. *)
            let pos1 = ref 1 in
            for k = 1 to Array.length arr - 1 do
              if s.level.(var_of arr.(k)) > s.level.(var_of arr.(!pos1)) then
                pos1 := k
            done;
            let tmp = arr.(1) in
            arr.(1) <- arr.(!pos1);
            arr.(!pos1) <- tmp;
            let id = add_clause_internal s arr true lbd in
            enqueue s l id);
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
        if s.assigns.(v) <> 0 then s.phase.(v) <- s.assigns.(v) = 1
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
