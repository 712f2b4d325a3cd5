type t = { m : int64; e : int }

(* Full 64x64 -> 128 unsigned multiply on int64 bit patterns.

   Certified by bdlint's width pass: with a and b read as unsigned
   64-bit values, every intermediate provably stays inside [0, 2^64):
   the half-words are 32-bit, each cross product is at most
   (2^32-1)^2 = 2^64 - 2^33 + 1, mid at most 3·(2^32-1) (so mid lsr 32
   is at most 2), and high sums to exactly 2^64 - 1 in the worst case.
   [mid] is masked to its low 32 bits before the left shift — the shift
   discards those bits anyway (mod 2^64), so the mask is an identity
   that makes the no-overflow argument explicit. *)
let umul128 (a [@lint.width 64]) (b [@lint.width 64]) =
  let mask32 = 0xFFFFFFFFL in
  let ah = Int64.shift_right_logical a 32 and al = Int64.logand a mask32 in
  let bh = Int64.shift_right_logical b 32 and bl = Int64.logand b mask32 in
  let hh = Int64.mul ah bh in
  let hl = Int64.mul ah bl in
  let lh = Int64.mul al bh in
  let ll = Int64.mul al bl in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical ll 32) (Int64.logand hl mask32))
      (Int64.logand lh mask32)
  in
  let low =
    Int64.logor
      (Int64.shift_left (Int64.logand mid mask32) 32)
      (Int64.logand ll mask32)
  in
  let high =
    Int64.add
      (Int64.add hh (Int64.shift_right_logical hl 32))
      (Int64.add (Int64.shift_right_logical lh 32)
         (Int64.shift_right_logical mid 32))
  in
  (high, low)
[@@lint.certified_width 64]

let top_bit_set m = Int64.compare m 0L < 0 (* bit 63 as sign bit *)

let rec normalize m e =
  if Int64.equal m 0L then invalid_arg "Ext64: zero"
  else if top_bit_set m then { m; e }
  else normalize (Int64.shift_left m 1) (e - 1)

let of_int n =
  if n <= 0 then invalid_arg "Ext64.of_int: need positive";
  normalize (Int64.of_int n) 0

let of_float x =
  if not (Float.is_finite x) || x <= 0. then
    invalid_arg "Ext64.of_float: need positive finite";
  let frac, ex = Float.frexp x in
  (* frac in [0.5, 1): 53 significant bits, exact at 2^53 *)
  let m53 = Int64.of_float (Float.ldexp frac 53) in
  normalize m53 (ex - 53)

(* (m + 1)·2^e, renormalized when the carry reaches 2^64 *)
let[@inline] succ_mantissa m e =
  let m = Int64.add m 1L in
  if Int64.equal m 0L then { m = Int64.min_int; e = e + 1 } else { m; e }

let mul a b =
  let high, low = umul128 a.m b.m in
  let e = a.e + b.e + 64 in
  (* product of two normalized mantissas is in [2^126, 2^128): at most one
     normalizing shift *)
  let high, low, e =
    if top_bit_set high then (high, low, e)
    else
      ( Int64.logor (Int64.shift_left high 1)
          (Int64.shift_right_logical low 63),
        Int64.shift_left low 1,
        e - 1 )
  in
  (* round to nearest-even on the dropped 64 bits *)
  let round_up =
    top_bit_set low
    && (not (Int64.equal (Int64.shift_left low 1) 0L)
       || Int64.equal (Int64.logand high 1L) 1L)
  in
  if round_up then succ_mantissa high e else { m = high; e }

module T = Fastpath.Pow10_table

(* Correctly rounded 10^n, read off the table entry
   10^n = (c(n) + θ)·2^γ(n) with 2^127 <= c(n) < 2^128 and θ in [0, 1):
   the mantissa is bits 64..127 of c(n), plus one when bit 63 is set.
   Rounding on bit 63 alone is exact because nothing below it can
   decide a tie: 10^n sits exactly halfway between two 64-bit mantissas
   only if n >= 0 and 5^n is exactly 65 bits long, and no power of five
   is (5^27 has 63 bits, 5^28 has 66).  Limbs are 28 bits, least
   significant first, so bits 64..127 are the top 20 bits of limb 2 and
   all of limbs 3 and 4, and bit 63 is bit 7 of limb 2. *)
let pow10_correct n =
  if n < T.q_min || n > T.q_max then
    invalid_arg "Ext64.pow10_correct: out of range";
  let i = n - T.q_min in
  let base = T.limbs_per_entry * i in
  let l2 = T.limbs.(base + 2) in
  let l3 = T.limbs.(base + 3) in
  let l4 = T.limbs.(base + 4) in
  let m =
    Int64.logor
      (Int64.shift_left (Int64.of_int l4) 48)
      (Int64.of_int ((l3 lsl 20) lor (l2 lsr 8)))
  in
  let e = T.exps.(i) + 64 in
  if l2 land 0x80 = 0 then { m; e } else succ_mantissa m e

(* The printf model: 10^n composed from the correctly rounded powers
   10^(±2^i) by chunked multiplication, each product rounded (the
   starting 10^0 is exact, and so is multiplying by it). *)
let pow10 n =
  if abs n > 350 then invalid_arg "Ext64.pow10: out of range";
  let acc = ref (pow10_correct 0) in
  for i = 0 to 8 do
    if abs n land (1 lsl i) <> 0 then
      acc := mul !acc (pow10_correct (if n > 0 then 1 lsl i else -(1 lsl i)))
  done;
  !acc

let to_int64_round t =
  (* value = m * 2^e with m in [2^63, 2^64) *)
  if t.e >= -1 then invalid_arg "Ext64.to_int64_round: too large";
  let drop = -t.e in
  if drop > 64 then 0L
  else if drop = 64 then if top_bit_set t.m then 1L else 0L
  else begin
    let kept = Int64.shift_right_logical t.m drop in
    let dropped = Int64.shift_left t.m (64 - drop) in
    let round_up =
      top_bit_set dropped
      && (not (Int64.equal (Int64.shift_left dropped 1) 0L)
         || Int64.equal (Int64.logand kept 1L) 1L)
    in
    if round_up then Int64.add kept 1L else kept
  end

let to_float t =
  (* the mantissa is unsigned; split off the low bit so the conversion of
     the high 63 bits stays in Int64's positive range *)
  let high = Int64.to_float (Int64.shift_right_logical t.m 1) in
  let low = Int64.to_float (Int64.logand t.m 1L) in
  Float.ldexp ((high *. 2.) +. low) t.e
