type t = { width : int; limbs : int64 array }

let nlimbs w = (w + 63) / 64

(* Mask off bits above [width] in the top limb so equality is structural. *)
let normalize width limbs =
  let top_bits = width land 63 in
  if top_bits <> 0 then begin
    let last = Array.length limbs - 1 in
    let mask = Int64.sub (Int64.shift_left 1L top_bits) 1L in
    limbs.(last) <- Int64.logand limbs.(last) mask
  end;
  { width; limbs }

let check_width w = if w <= 0 then invalid_arg "Bitvec: width must be positive"

let width v = v.width

let zero w =
  check_width w;
  { width = w; limbs = Array.make (nlimbs w) 0L }

let ones w =
  check_width w;
  normalize w (Array.make (nlimbs w) (-1L))

let of_int64 ~width:w n =
  check_width w;
  let limbs = Array.make (nlimbs w) 0L in
  limbs.(0) <- n;
  (* Sign-extend negative int64 across remaining limbs so that of_int64
     matches two's-complement truncation for any width. *)
  if Int64.compare n 0L < 0 then
    for i = 1 to Array.length limbs - 1 do
      limbs.(i) <- -1L
    done;
  normalize w limbs

let of_int ~width n = of_int64 ~width (Int64.of_int n)
let one w = of_int ~width:w 1
let of_bool b = of_int ~width:1 (if b then 1 else 0)

let bit v i =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.bit: index out of range";
  Int64.logand (Int64.shift_right_logical v.limbs.(i / 64) (i land 63)) 1L = 1L

let set_bit v i b =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.set_bit: index out of range";
  let limbs = Array.copy v.limbs in
  let mask = Int64.shift_left 1L (i land 63) in
  limbs.(i / 64) <-
    (if b then Int64.logor limbs.(i / 64) mask
     else Int64.logand limbs.(i / 64) (Int64.lognot mask));
  { v with limbs }

let of_bits bits =
  match bits with
  | [] -> invalid_arg "Bitvec.of_bits: empty"
  | _ ->
    let w = List.length bits in
    let v = ref (zero w) in
    List.iteri (fun i b -> if b then v := set_bit !v i b) bits;
    !v

let to_bits v = List.init v.width (bit v)

let of_binary_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bitvec.of_binary_string: empty";
  let v = ref (zero n) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> v := set_bit !v (n - 1 - i) true
      | _ -> invalid_arg "Bitvec.of_binary_string: expected 0 or 1")
    s;
  !v

let to_binary_string v =
  String.init v.width (fun i -> if bit v (v.width - 1 - i) then '1' else '0')

let to_hex_string v =
  let digits = (v.width + 3) / 4 in
  String.init digits (fun i ->
      let lo = (digits - 1 - i) * 4 in
      let d = ref 0 in
      for j = 3 downto 0 do
        let idx = lo + j in
        d := (!d * 2) + if idx < v.width && bit v idx then 1 else 0
      done;
      "0123456789abcdef".[!d])

let pp fmt v = Format.fprintf fmt "%d'h%s" v.width (to_hex_string v)

let equal a b = a.width = b.width && Array.for_all2 Int64.equal a.limbs b.limbs

let hash v = Hashtbl.hash (v.width, Array.to_list v.limbs)

(* Unsigned limb comparison: flip sign bits so Int64.compare orders
   unsigned values correctly. *)
let ucompare_limb a b =
  Int64.compare (Int64.add a Int64.min_int) (Int64.add b Int64.min_int)

let compare a b =
  if a.width <> b.width then Int.compare a.width b.width
  else
    let rec go i =
      if i < 0 then 0
      else
        let c = ucompare_limb a.limbs.(i) b.limbs.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Array.length a.limbs - 1)

let is_zero v = Array.for_all (Int64.equal 0L) v.limbs
let is_ones v = equal v (ones v.width)
let msb v = bit v (v.width - 1)

let popcount v =
  let pop64 l =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical l i) 1L = 1L then incr c
    done;
    !c
  in
  Array.fold_left (fun acc l -> acc + pop64 l) 0 v.limbs

let to_int v =
  if v.width > 62 then begin
    (* Accept wide vectors whose value still fits. *)
    for i = 1 to Array.length v.limbs - 1 do
      if v.limbs.(i) <> 0L then invalid_arg "Bitvec.to_int: does not fit"
    done;
    let l = v.limbs.(0) in
    if Int64.compare l 0L < 0 || Int64.compare l (Int64.of_int max_int) > 0 then
      invalid_arg "Bitvec.to_int: does not fit";
    Int64.to_int l
  end
  else Int64.to_int v.limbs.(0)

let to_signed_int v =
  if msb v then
    let m = (* -(2^width - value) *)
      let rec sum i acc =
        if i >= v.width then acc
        else sum (i + 1) (if bit v i then acc else acc + (1 lsl i))
      in
      if v.width > 62 then invalid_arg "Bitvec.to_signed_int: too wide"
      else -(sum 0 0) - 1
    in
    m
  else to_int v

let check_same a b =
  if a.width <> b.width then invalid_arg "Bitvec: width mismatch"

let map2 f a b =
  check_same a b;
  normalize a.width (Array.init (Array.length a.limbs) (fun i -> f a.limbs.(i) b.limbs.(i)))

let logand a b = map2 Int64.logand a b
let logor a b = map2 Int64.logor a b
let logxor a b = map2 Int64.logxor a b

let lognot a =
  normalize a.width (Array.map Int64.lognot a.limbs)

(* Addition with carry propagation across limbs. *)
let add a b =
  check_same a b;
  let n = Array.length a.limbs in
  let out = Array.make n 0L in
  let carry = ref 0L in
  for i = 0 to n - 1 do
    let s = Int64.add a.limbs.(i) b.limbs.(i) in
    let s' = Int64.add s !carry in
    (* carry-out of unsigned add: s < a (as unsigned) or (s' < s when adding carry) *)
    let c1 = if ucompare_limb s a.limbs.(i) < 0 then 1L else 0L in
    let c2 = if ucompare_limb s' s < 0 then 1L else 0L in
    out.(i) <- s';
    carry := Int64.add c1 c2
  done;
  normalize a.width out

let neg a = add (lognot a) (one a.width)
let sub a b = add a (neg b)

let shift_left v k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative";
  if k >= v.width then zero v.width
  else begin
    let out = zero v.width in
    let out = ref out in
    for i = v.width - 1 downto k do
      if bit v (i - k) then out := set_bit !out i true
    done;
    !out
  end

let shift_right_logical v k =
  if k < 0 then invalid_arg "Bitvec.shift_right_logical: negative";
  if k >= v.width then zero v.width
  else begin
    let out = ref (zero v.width) in
    for i = 0 to v.width - 1 - k do
      if bit v (i + k) then out := set_bit !out i true
    done;
    !out
  end

let shift_right_arith v k =
  if k < 0 then invalid_arg "Bitvec.shift_right_arith: negative";
  let sign = msb v in
  let k = min k v.width in
  let out = ref (shift_right_logical v (min k (v.width - 1)) ) in
  if k >= v.width then out := if sign then ones v.width else zero v.width
  else if sign then
    for i = v.width - k to v.width - 1 do
      out := set_bit !out i true
    done;
  !out

let mul a b =
  check_same a b;
  (* Schoolbook shift-and-add; widths in this project are small. *)
  let acc = ref (zero a.width) in
  for i = 0 to a.width - 1 do
    if bit b i then acc := add !acc (shift_left a i)
  done;
  !acc

let ult a b = compare a b < 0
let ule a b = compare a b <= 0

let slt a b =
  check_same a b;
  match (msb a, msb b) with
  | true, false -> true
  | false, true -> false
  | _ -> ult a b

(* Unsigned long division, restoring, bit-serial. *)
let udivmod a b =
  check_same a b;
  if is_zero b then (ones a.width, a) (* RISC-V: q = -1, r = dividend *)
  else begin
    let q = ref (zero a.width) in
    let r = ref (zero a.width) in
    for i = a.width - 1 downto 0 do
      r := shift_left !r 1;
      if bit a i then r := set_bit !r 0 true;
      if ule b !r then begin
        r := sub !r b;
        q := set_bit !q i true
      end
    done;
    (!q, !r)
  end

let udiv a b = fst (udivmod a b)
let urem a b = snd (udivmod a b)

let min_signed w = set_bit (zero w) (w - 1) true

let sdiv a b =
  check_same a b;
  if is_zero b then ones a.width
  else if equal a (min_signed a.width) && is_ones b then a (* overflow *)
  else begin
    let abs v = if msb v then neg v else v in
    let q = udiv (abs a) (abs b) in
    if msb a <> msb b then neg q else q
  end

let srem a b =
  check_same a b;
  if is_zero b then a
  else if equal a (min_signed a.width) && is_ones b then zero a.width
  else begin
    let abs v = if msb v then neg v else v in
    let r = urem (abs a) (abs b) in
    if msb a then neg r else r
  end

let extract v ~hi ~lo =
  if lo < 0 || hi >= v.width || hi < lo then
    invalid_arg "Bitvec.extract: bad range";
  let w = hi - lo + 1 in
  let out = ref (zero w) in
  for i = 0 to w - 1 do
    if bit v (lo + i) then out := set_bit !out i true
  done;
  !out

let concat hi lo =
  let w = hi.width + lo.width in
  let out = ref (zero w) in
  for i = 0 to lo.width - 1 do
    if bit lo i then out := set_bit !out i true
  done;
  for i = 0 to hi.width - 1 do
    if bit hi i then out := set_bit !out (lo.width + i) true
  done;
  !out

let zero_extend v w =
  if w < v.width then invalid_arg "Bitvec.zero_extend: narrowing";
  if w = v.width then v
  else begin
    let out = ref (zero w) in
    for i = 0 to v.width - 1 do
      if bit v i then out := set_bit !out i true
    done;
    !out
  end

let sign_extend v w =
  if w < v.width then invalid_arg "Bitvec.sign_extend: narrowing";
  let out = ref (zero_extend v w) in
  if msb v then
    for i = v.width to w - 1 do
      out := set_bit !out i true
    done;
  !out

let random st w =
  check_width w;
  let limbs = Array.init (nlimbs w) (fun _ -> Random.State.int64 st Int64.max_int) in
  (* int64 draws miss the sign bit; fill it from a separate draw. *)
  let limbs =
    Array.map
      (fun l -> if Random.State.bool st then Int64.logor l Int64.min_int else l)
      limbs
  in
  normalize w limbs
