(* Decimal text to binary64 in three steps over the input string, after
   Lemire (Number Parsing at a Gigabyte per Second) and Clinger:

   1. an allocation-free scan takes the first 19 significant digits into
      w, the decimal exponent q, and whether a nonzero digit was dropped;
   2. Clinger's exact tier, or Lemire's 128-bit product of w with the
      table's c(q), which Mushtak & Lemire (Fast Number Parsing Without
      Fallback) prove is always enough for w < 2^64;
   3. when dropped digits leave the answer between two doubles, one
      exact comparison of the whole decimal against their midpoint.

   Everything the scanner does not accept ([_] separators, [inf]/[nan],
   syntax errors, inputs over the length budget or past a deadline)
   goes to [Exact.parse], the one source of structured errors.  [tiers]
   is the same scan with steps 1 and 2 alone: it answers [nan] where
   [read] goes on to step 3 or to [Exact.parse]. *)

module Nat = Bignum.Nat
module Budget = Robust.Budget
module T = Fastpath.Pow10_table

type stats = { exact : int; extended : int; fallback : int }

(* Tier counters are telemetry counters (atomic, summed across worker
   domains) and always-on: [stats ()] is a public contract the ablation
   bench reads with telemetry switched off.  One uncontended
   fetch-and-add per conversion. *)
let tier_counter tier =
  Telemetry.Metrics.counter
    ~labels:[ ("tier", tier) ]
    ~help:"Reader conversions by tier: Clinger's hardware-exact tier, \
           Lemire's 128-bit product, or an exact bignum comparison or \
           fallback."
    "bdprint_reader_tier_total"
[@@lint.can_raise
  Invalid_argument
  (* registry rejects malformed metric names at module init — a bad name
     here is a programming error that should abort startup loudly *)]

let n_exact = tier_counter "exact"
let n_extended = tier_counter "extended"
let n_fallback = tier_counter "fallback"

let stats () =
  {
    exact = Telemetry.Metrics.value n_exact;
    extended = Telemetry.Metrics.value n_extended;
    fallback = Telemetry.Metrics.value n_fallback;
  }

let count tier =
  (Telemetry.Metrics.incr tier)
  [@lint.always_on "tier counters back the always-available stats contract"]

let guarded f = Result.join (Robust.Error.catch f)

(* Powers of ten exactly representable in binary64: 10^22 = 2^22 * 5^22
   and 5^22 < 2^53. *)
let exact_pow10 =
  Array.init 23 (fun i -> 10. ** float_of_int i)
  [@@lint.domain_safe "read-only lookup table built at init"]

let two53 = 9007199254740992 (* 2^53 *)
let mask32 = 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Lemire's product *)

(* High 64 bits of the unsigned 64x64 product of two int64 bit
   patterns, on 32-bit halves.  Certified by bdlint's width pass: each
   cross product is at most (2^32-1)^2, mid at most 3·(2^32-1), and the
   high word sums to at most 2^64 - 1.  Inlined, so its int64s stay
   unboxed and a read allocates nothing for the product. *)
let[@inline] mul_high (a [@lint.width 64]) (b [@lint.width 64]) =
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
  Int64.add
    (Int64.add hh (Int64.shift_right_logical hl 32))
    (Int64.add (Int64.shift_right_logical lh 32)
       (Int64.shift_right_logical mid 32))
[@@lint.certified_width 64]

(* Unsigned a < b on int64 bit patterns. *)
let[@inline] ult (a : int64) b =
  Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* Leading zeros of the 64-bit w = wh·2^32 + wl, for 0 < w and wh, wl
   below 2^32: a binary search on the nonzero half. *)
let leading_zeros wh wl =
  let x = ref (if wh = 0 then wl else wh) in
  let n = ref (if wh = 0 then 32 else 0) and step = ref 16 in
  while !step > 0 do
    if !x < 1 lsl (32 - !step) then begin
      n := !n + !step;
      x := !x lsl !step
    end;
    step := !step / 2
  done;
  !n

(* The binary64 nearest to w·10^q, negated when [neg], for
   1 <= w = wh·2^32 + wl <= 10^19 (wh, wl below 2^32): Lemire's
   algorithm on the table entry 10^q = (c(q) + θ)·2^γ(q).  The product
   uses c(q) + 1 for -27 <= q <= -1 and c(q) elsewhere: the table of
   Lemire's reference implementation, the one the proof covers
   (test_fastpath checks it entry by entry).

   With w shifted left by its lz leading zeros, the high 64 bits of
   w·(bits 64..127 of the entry) carry the answer unless their low 9
   bits are all ones, when the high word of w·(bits 0..63) is added in.
   The top bit of the product (upper) and γ(q) place the binary point:
   the biased exponent is γ(q) + 1213 + upper - lz.  The 54 bits under
   the top bit round to 53; an exact tie can only occur for
   -4 <= q <= 23, where the dropped bits and the low word show it. *)
let product neg wh wl q =
  let bits =
    if q < -342 then 0L
    else if q > 308 then 0x7FF0_0000_0000_0000L
    else begin
      let lz = leading_zeros wh wl in
      let w =
        Int64.logor (Int64.shift_left (Int64.of_int wh) 32) (Int64.of_int wl)
      in
      let w = Int64.shift_left w lz in
      (* c(q) in 28-bit limbs, least significant first: bits 64..127
         are the top 20 bits of limb 2 and all of limbs 3 and 4, bits
         0..63 limbs 0 and 1 and the low 8 bits of limb 2 *)
      let i = q - T.q_min in
      let base = T.limbs_per_entry * i in
      let l2 = T.limbs.(base + 2) in
      let c_hi =
        Int64.logor
          (Int64.shift_left (Int64.of_int T.limbs.(base + 4)) 48)
          (Int64.of_int ((T.limbs.(base + 3) lsl 20) lor (l2 lsr 8)))
      in
      let c_lo =
        Int64.logor
          (Int64.shift_left (Int64.of_int (l2 land 0xFF)) 56)
          (Int64.of_int ((T.limbs.(base + 1) lsl 28) lor T.limbs.(base)))
      in
      let up = q >= -27 && q <= -1 in
      let c_lo = if up then Int64.succ c_lo else c_lo in
      let c_hi = if up && c_lo = 0L then Int64.succ c_hi else c_hi in
      let hi = mul_high w c_hi in
      let h2 =
        if Int64.logand hi 0x1FFL = 0x1FFL then mul_high w c_lo else 0L
      in
      let lo = Int64.add (Int64.mul w c_hi) h2 in
      let hi = if ult lo h2 then Int64.succ hi else hi in
      let upper = Int64.to_int (Int64.shift_right_logical hi 63) in
      let shift = upper + 9 in
      let m = Int64.to_int (Int64.shift_right_logical hi shift) in
      let p2 = T.exps.(i) + 1213 + upper - lz in
      if p2 <= 0 then
        (* subnormal: m < 2^55, so a shift of 55 or more leaves zero;
           the rounded mantissa may reach 2^52, the smallest normal,
           whose bits it then already is *)
        if 1 - p2 >= 55 then 0L
        else begin
          let m = m lsr (1 - p2) in
          Int64.of_int ((m + (m land 1)) lsr 1)
        end
      else begin
        let m =
          if
            (lo = 0L || lo = 1L)
            && q >= -4 && q <= 23
            && m land 3 = 1
            && Int64.shift_left (Int64.of_int m) shift = hi
          then m land lnot 1
          else m
        in
        let m = (m + (m land 1)) lsr 1 in
        (* rounding up to 2^53 moves to the next binade *)
        let carry = m lsr 53 in
        let m = m lsr carry and p2 = p2 + carry in
        if p2 >= 0x7FF then 0x7FF0_0000_0000_0000L
        else
          Int64.logor
            (Int64.shift_left (Int64.of_int p2) 52)
            (Int64.of_int (m land ((1 lsl 52) - 1)))
      end
    end
  in
  Int64.float_of_bits (if neg then Int64.logor bits Int64.min_int else bits)

(* ------------------------------------------------------------------ *)
(* Past 19 digits: Clinger's comparison *)

(* The decimal x = D·10^e10, D the digits of [s] between [first] and
   [stop], lies strictly between w·10^q and (w+1)·10^q, whose nearest
   doubles are [a] and its successor.  Compare x exactly with their
   midpoint (2m+1)·2^(e-1), a = m·2^e, and break a tie to even: Clinger's
   Algorithm R, started from the product's answer. *)
let resolve s ~first ~stop ~e10 a =
  guarded (fun () ->
      let bits = Int64.bits_of_float a in
      let be = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
      let f = Int64.to_int bits land ((1 lsl 52) - 1) in
      let m = if be = 0 then f else f lor (1 lsl 52) in
      let k = (if be = 0 then -1074 else be - 1075) - 1 in
      let d = Exact.digits_nat s first stop in
      Exact.check_scale_budget ~bits:(Nat.bit_length d) e10;
      let mid = Nat.of_int ((2 * m) + 1) in
      let order =
        if e10 >= 0 then begin
          let x = Nat.mul d (Nat.pow_int 5 e10) in
          if e10 >= k then Nat.compare (Nat.shift_left x (e10 - k)) mid
          else Nat.compare x (Nat.shift_left mid (k - e10))
        end
        else begin
          let y = Nat.mul mid (Nat.pow_int 5 (-e10)) in
          if e10 >= k then Nat.compare (Nat.shift_left d (e10 - k)) y
          else Nat.compare d (Nat.shift_left y (k - e10))
        end
      in
      if order < 0 || (order = 0 && m land 1 = 0) then Ok a
      else Ok (Int64.float_of_bits (Int64.succ bits)))

(* ------------------------------------------------------------------ *)
(* Reading *)

(* What a read gives back.  [Tiers]: the binary64 alone, or [nan] where
   the answer needs a bignum; no input the tiers answer reads as a NaN.
   [Full]: the result, with the bignum steps run. *)
type _ route =
  | Tiers : float route
  | Full : (float, Robust.Error.t) result route

let[@inline] answer : type r. r route -> float -> r =
 fun route x -> match route with Tiers -> x | Full -> Ok x

(* Everything the scanner hands over: errors, specials, separators. *)
let read_exact s =
  guarded (fun () ->
      match Exact.parse s with
      | Error _ as e -> e
      | Ok (Exact.Infinity neg) ->
        Ok (if neg then Float.neg_infinity else Float.infinity)
      | Ok Exact.Not_a_number -> Ok Float.nan
      | Ok (Exact.Number d) ->
        if Nat.is_zero d.Exact.digits then Ok (if d.Exact.neg then -0. else 0.)
        else begin
          count n_fallback;
          Ok (Fp.Ieee.compose (Exact.read_decimal Fp.Format_spec.binary64 d))
        end)

let hand_over : type r. r route -> string -> r =
 fun route s -> match route with Tiers -> Float.nan | Full -> read_exact s

(* The one scanner, for both routes. *)
let scan : type r. r route -> string -> r =
 fun route s ->
  let len = String.length s in
  if not (Budget.input_length_ok len) then hand_over route s
  else begin
    let neg = len > 0 && s.[0] = '-' in
    let i = ref (if len > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0) in
    let first = !i in
    (* w: the first 18 significant digits; the 19th waits in d19 *)
    let w = ref 0 and d19 = ref 0 and nd = ref 0 in
    let scale = ref 0 and truncated = ref false in
    let dot = ref (-1) and more = ref true in
    while !more && !i < len do
      match s.[!i] with
      | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if !nd < 19 then begin
          if !nd > 0 || d > 0 then begin
            if !nd < 18 then w := (!w * 10) + d else d19 := d;
            incr nd
          end;
          if !dot >= 0 then decr scale
        end
        else begin
          if d > 0 then truncated := true;
          if !dot < 0 then incr scale
        end;
        incr i
      | '.' when !dot < 0 ->
        dot := !i;
        incr i
      | _ -> more := false
    done;
    let stop = !i in
    let digits = stop - first - if !dot >= 0 then 1 else 0 in
    let exp = ref 0 and ok = ref (digits > 0) in
    if !ok && !i < len && (s.[!i] = 'e' || s.[!i] = 'E') then begin
      incr i;
      let esign = if !i < len && s.[!i] = '-' then -1 else 1 in
      if !i < len && (s.[!i] = '-' || s.[!i] = '+') then incr i;
      let start = !i in
      while !i < len && s.[!i] >= '0' && s.[!i] <= '9' do
        if !exp < Exact.exp_clamp then
          exp := (!exp * 10) + (Char.code s.[!i] - Char.code '0');
        incr i
      done;
      ok := !i > start;
      exp := esign * min !exp Exact.exp_clamp
    end;
    if (not !ok) || !i <> len then hand_over route s
    else begin
      Budget.observe_input_length len;
      let q = !exp + !scale in
      if !nd = 0 then answer route (if neg then -0. else 0.)
      else if !nd <= 18 && !w <= two53 && q >= -22 && q <= 22 then begin
        (* Clinger: both operands exact, one IEEE operation *)
        count n_exact;
        let x =
          if q >= 0 then float_of_int !w *. exact_pow10.(q)
          else float_of_int !w /. exact_pow10.(-q)
        in
        answer route (if neg then -.x else x)
      end
      else begin
        (* w = wh·2^32 + wl, with the 19th digit joined in *)
        let k = if !nd = 19 then 10 else 1 in
        let low = ((!w land mask32) * k) + !d19 in
        let wh = ((!w lsr 32) * k) + (low lsr 32) and wl = low land mask32 in
        if not !truncated then begin
          count n_extended;
          answer route (product neg wh wl q)
        end
        else begin
          let a = product neg wh wl q in
          let wl1 = wl + 1 in
          let b = product neg (wh + (wl1 lsr 32)) (wl1 land mask32) q in
          if Int64.bits_of_float a = Int64.bits_of_float b then begin
            count n_extended;
            answer route a
          end
          else
            match route with
            | Tiers -> Float.nan
            | Full ->
              count n_fallback;
              let frac_len = if !dot >= 0 then stop - !dot - 1 else 0 in
              resolve s ~first ~stop ~e10:(!exp - frac_len) a
        end
      end
    end
  end

let tiers s = scan Tiers s
let read s = scan Full s
