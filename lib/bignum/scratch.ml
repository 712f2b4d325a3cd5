(* Mutable fixed-capacity limb workspaces for the digit-generation hot
   path and the fast reader's midpoint comparison.  A [t] owns a
   little-endian array of 30-bit limbs (same representation as [Nat])
   of which the first [len] are significant; limbs past [len] are
   garbage.  Every kernel works destructively on
   the workspace and grows the backing array geometrically, so a pooled
   workspace reaches a steady state after which no operation
   allocates. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { mutable limbs : int array; mutable len : int }
[@@lint.domain_safe "workspaces live in a Domain.DLS pool; never shared across domains"]

exception Quotient_overflow

let create capacity = { limbs = Array.make (max capacity 1) 0; len = 0 }

let capacity t = Array.length t.limbs
let length t = t.len
let is_zero t = t.len = 0

(* Grow the backing array to hold at least [n] limbs, preserving the
   significant prefix.  Doubling keeps the amortized cost constant. *)
let ensure t n =
  if Array.length t.limbs < n then
    (begin
       let grown = Array.make (max n (2 * Array.length t.limbs)) 0 in
       Array.blit t.limbs 0 grown 0 t.len;
       t.limbs <- grown
     end
     [@lint.alloc_ok "geometric growth: amortized-constant, settles after warm-up"])
  [@@lint.no_alloc]

(* Re-establish the no-high-zero-limb invariant after a destructive op
   that may have shortened the value. *)
let clamp t =
  while t.len > 0 && t.limbs.(t.len - 1) = 0 do
    t.len <- t.len - 1
  done
  [@@lint.no_alloc]

let set_nat t n =
  let l = Nat.limbs n in
  let len = Array.length l in
  ensure t len;
  Array.blit l 0 t.limbs 0 len;
  t.len <- len
  [@@lint.no_alloc]

let of_nat n =
  let t = create (Array.length (Nat.limbs n) + 2) in
  set_nat t n;
  t

let to_nat t =
  (Nat.of_limbs_copy t.limbs t.len)
  [@lint.can_raise Invalid_argument] (* len <= Array.length limbs *)

let set_int t n =
  if n < 0 then invalid_arg "Scratch.set_int: negative";
  ensure t 3;
  let l = t.limbs in
  l.(0) <- n land mask;
  l.(1) <- (n lsr base_bits) land mask;
  l.(2) <- n lsr (2 * base_bits);
  t.len <- 3;
  clamp t
  [@@lint.no_alloc]

let copy_into ~src ~dst =
  ensure dst src.len;
  Array.blit src.limbs 0 dst.limbs 0 src.len;
  dst.len <- src.len
  [@@lint.no_alloc]

let bits_of_limb limb =
  let rec loop n v = if v = 0 then n else loop (n + 1) (v lsr 1) in
  loop 0 limb
  [@@lint.no_alloc]

let bit_length t =
  if t.len = 0 then 0
  else ((t.len - 1) * base_bits) + bits_of_limb t.limbs.(t.len - 1)
  [@@lint.no_alloc]

let compare a b =
  if a.len <> b.len then Int.compare a.len b.len
  else begin
    let al = a.limbs and bl = b.limbs in
    let rec loop i =
      if i < 0 then 0
      else if al.(i) <> bl.(i) then Int.compare al.(i) bl.(i)
      else loop (i - 1)
    in
    loop (a.len - 1)
  end
  [@@lint.no_alloc]

(* a := a + b.  Safe under aliasing (a == b doubles the value): within
   each iteration both operand limbs are read before the write. *)
let add_in_place a b =
  let la = a.len and lb = b.len in
  let l = max la lb in
  ensure a (l + 1);
  let al = a.limbs and bl = b.limbs in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let t =
      (if i < la then al.(i) else 0) + (if i < lb then bl.(i) else 0) + !carry
    in
    al.(i) <- t land mask;
    carry := t lsr base_bits
  done;
  if !carry <> 0 then begin
    al.(l) <- !carry;
    a.len <- l + 1
  end
  else a.len <- l
  [@@lint.no_alloc]

(* a := a - b; requires a >= b. *)
let sub_in_place a b =
  if compare a b < 0 then invalid_arg "Scratch.sub_in_place: negative result";
  let la = a.len and lb = b.len in
  let al = a.limbs and bl = b.limbs in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let t = al.(i) - (if i < lb then bl.(i) else 0) - !borrow in
    if t < 0 then begin
      al.(i) <- t + base;
      borrow := 1
    end
    else begin
      al.(i) <- t;
      borrow := 0
    end
  done;
  clamp a
  [@@lint.no_alloc]

(* a := a·m + c, for m and c below 2^30: each product plus carry stays
   below 2^60 + 2^30, and the final carry below m.  Unchecked, like
   [add_in_place]: its callers pass digit chunks and small powers.  The
   clamp matters only for m = 0. *)
let mul_add_in_place a m c =
  let la = a.len in
  ensure a (la + 1);
  let al = a.limbs in
  let carry = ref c in
  for i = 0 to la - 1 do
    let t = (al.(i) * m) + !carry in
    al.(i) <- t land mask;
    carry := t lsr base_bits
  done;
  if !carry <> 0 then begin
    al.(la) <- !carry;
    a.len <- la + 1
  end;
  clamp a
  [@@lint.no_alloc]

let mul_int_in_place a m =
  if m < 0 || m >= base then
    invalid_arg "Scratch.mul_int_in_place: out of limb range";
  mul_add_in_place a m 0
  [@@lint.no_alloc]

let shift_left_in_place a k =
  if k < 0 then invalid_arg "Scratch.shift_left_in_place: negative";
  if a.len > 0 && k > 0 then begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = a.len in
    ensure a (la + limbs + 1);
    let al = a.limbs in
    if bits = 0 then begin
      Array.blit al 0 al limbs la;
      Array.fill al 0 limbs 0;
      a.len <- la + limbs
    end
    else begin
      (* high-to-low pass: every read happens before the slot it lands in
         is overwritten, so the shift is safely in place *)
      let top = al.(la - 1) lsr (base_bits - bits) in
      for i = la - 1 downto 1 do
        al.(i + limbs) <-
          ((al.(i) lsl bits) land mask) lor (al.(i - 1) lsr (base_bits - bits))
      done;
      al.(limbs) <- (al.(0) lsl bits) land mask;
      Array.fill al 0 limbs 0;
      if top <> 0 then begin
        al.(la + limbs) <- top;
        a.len <- la + limbs + 1
      end
      else a.len <- la + limbs
    end
  end
  [@@lint.no_alloc]

(* ------------------------------------------------------------------ *)
(* Invariant-divisor short division *)

let normalize_divisor t s =
  if Nat.is_zero s then raise Division_by_zero;
  set_nat t s;
  let shift = base_bits - bits_of_limb t.limbs.(t.len - 1) in
  shift_left_in_place t shift;
  shift
  [@@lint.no_alloc]

(* One step of Knuth TAOCP 4.3.1 Algorithm D against the prepared
   divisor: returns q = floor(r/s) and leaves r := r mod s.  The
   divisor's top limb has its high bit set, so the estimate from the top
   two limbs of r is at most two high and the add-back fires at most
   once.  Quotients that do not fit a single limb (the caller broke the
   [r < 2^30 * s] precondition) raise {!Quotient_overflow} before any
   limb of [r] is written. *)
let div_digit r s =
  let n = s.len in
  if n = 0 then raise Division_by_zero;
  assert (s.limbs.(n - 1) >= base / 2);
  if r.len < n then 0
  else if r.len > n + 1 then raise Quotient_overflow
  else begin
    let rl = r.limbs and sl = s.limbs in
    let rn = if r.len > n then rl.(n) else 0 in
    (* Exact precondition check before any mutation: r < base * s holds
       iff the top n limbs of r (as an n-limb number) are below s.
       Without it, a quotient of exactly [base] would be silently capped
       at [base - 1] by the adjustment loop, leaving a remainder >= s. *)
    if r.len > n then begin
      let rec ge i =
        if i < 0 then true
        else if rl.(i + 1) <> sl.(i) then rl.(i + 1) > sl.(i)
        else ge (i - 1)
      in
      if ge (n - 1) then raise Quotient_overflow
    end;
    let top = (rn lsl base_bits) lor rl.(n - 1) in
    let qhat = ref (top / sl.(n - 1)) in
    let rhat = ref (top mod sl.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if
        !qhat >= base
        || (n >= 2
            && !qhat * sl.(n - 2) > (!rhat lsl base_bits) lor rl.(n - 2))
      then begin
        decr qhat;
        rhat := !rhat + sl.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Knuth's bound leaves qhat in {q, q+1}; a qhat still outside the
       limb range therefore means the true quotient does not fit one
       limb. *)
    if !qhat >= base then raise Quotient_overflow;
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * sl.(i)) + !carry in
      carry := p lsr base_bits;
      let t = rl.(i) - (p land mask) - !borrow in
      if t < 0 then begin
        rl.(i) <- t + base;
        borrow := 1
      end
      else begin
        rl.(i) <- t;
        borrow := 0
      end
    done;
    if rn - !carry - !borrow < 0 then begin
      (* qhat was one too large: add the divisor back once *)
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = rl.(i) + sl.(i) + !c in
        rl.(i) <- t land mask;
        c := t lsr base_bits
      done
    end;
    r.len <- n;
    clamp r;
    !qhat
  end
  [@@lint.no_alloc]

let check_invariant t =
  t.len >= 0
  && t.len <= Array.length t.limbs
  && (t.len = 0 || t.limbs.(t.len - 1) <> 0)
  &&
  let ok = ref true in
  for i = 0 to t.len - 1 do
    if t.limbs.(i) < 0 || t.limbs.(i) >= base then ok := false
  done;
  !ok
