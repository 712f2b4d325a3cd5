(* Table-driven fixed-precision digit generation: one certified loop,
   two stopping rules.

   The Burger-Dybvig loop proves each digit and the stopping decision
   with exact rational comparisons; this module runs the same loop on a
   128-bit fixed-point approximation and only keeps the answer when the
   approximation's error interval cannot change any comparison.  The
   verdict is three-valued — every comparison is {e certainly true},
   {e certainly false}, or {e uncertain} — and any uncertainty aborts
   the whole attempt so the caller falls back to the exact scratch/word
   kernels.  Hits are therefore byte-identical to the pure reference by
   construction, not by testing alone.

   Stopping rules.  The {e shortest} rule is free format: the loop runs
   on the float's own rounding range and stops at the first digit that
   pins the value.  The {e position} rule is fixed format (paper §4):
   each side of the range is first widened to the half quantum 10^j/2
   wherever that reaches the float's half gap, so the same loop stops
   at or before position j, and the positions after its last digit are
   then classified as significant zeros or [#] marks.  Relative
   requests (i significant digits) settle j = k - i with one widened
   scale check, which lands where [Fixed_format.relative]'s retries
   do.

   Number frame.  For v = f·2^e (f < 2^53) and the reference estimate
   [est] of ceil(log10 v), all quantities live in Q4.112 fixed point:
   X = v·10^(-est)·2^112, held as two native-int limbs (hi = integer
   part and top 56 fraction bits, lo = low 56 fraction bits).  X is
   carved out of the exact product P = f·c(-est) of the mantissa and a
   128-bit truncated power of ten (see {!Pow10_table}), computed in
   28-bit limbs so every partial product fits a native int.  The
   boundaries m± = 2^(e-1)·10^(-est)·2^112 (m⁻ halved again for
   mantissas on a power-of-two boundary) come straight from the table
   entry by shifting, and so does a half quantum, from the entry of
   its own power of ten.

   Error discipline.  The table entry and every window extraction
   UNDERestimate (truncate), so each approximation a of a true value A
   satisfies a ≤ A < a + err with a one-sided error counted in units of
   2^(-112): err starts at 2 per quantity and is multiplied by ten per
   digit or tail position, staying below 2·10^17 < 2^58 for the
   at-most-17 multiplications one attempt may make.  A comparison is
   certified only when it holds for {e every} pair of true values
   inside the two intervals, so exact equality is never certifiable
   from the frame: the correctly-rounded boundary case the exact
   fallback exists for.  One equality is decided without the frame: a
   digit whose fraction is within its error of the next integer has a
   remainder of exactly zero when v·10^(n-k) is an integer, which an
   integer test on the mantissa settles ([integral]).  Exact decimals
   such as 3.75, 1234 or 0.5 end on such a digit, and stay on this
   tier.

   Output.  The digits go straight into the caller's [Bytes] as ASCII,
   most significant first, and the verdict comes back as one packed
   int (digit count, point and zero count), so a hit allocates nothing
   here.

   Faults and budgets.  The fast path stands aside entirely while any
   fault point is armed ({!Robust.Faults.any_armed} is checked by the
   dispatcher) because it cannot reproduce the reference pipeline's
   trip sites; it {e does} honor per-request deadlines and digit
   budgets.  Each attempt checks the deadline once and reads the
   output-digit cap once; the loop compares its digit count with that
   int and calls {!Robust.Budget.check_output_digits} only past it, so
   a capped conversion fails at the same digit with the same error as
   the reference loop.  An attempt emits at most 17 digits, so a
   deadline that expires during one goes unseen for at most that
   attempt, well under a microsecond. *)

module Metrics = Telemetry.Metrics
module Pow10_table = Pow10_table
module T = Pow10_table

let mask28 = (1 lsl 28) - 1
let mask56 = (1 lsl 56) - 1
let mask60 = (1 lsl 60) - 1

(* Identity masks for the width certifier (see docs/STATIC_ANALYSIS.md):
   each is applied where the mathematical invariant (stated at the use
   site) keeps the value strictly below the mask, so the [land] never
   clears a set bit at runtime — it only lets the abstract interpreter
   carry the invariant across an operation it cannot derive itself. *)
let mask57 = (1 lsl 57) - 1
let mask58 = (1 lsl 58) - 1
let mask61 = (1 lsl 61) - 1

(* The fixed-point one: 2^112 in frame units, as a (hi, lo) pair with
   lo = 0. *)
let one_hi = 1 lsl 56

(* A shortest binary64 form needs at most 17 significant digits; if the
   certified loop has not stopped by then the error terms have swamped
   the margins and the exact kernels should take over.  The §4 tail
   shares the budget — digits plus zero positions stay within 17
   multiplications by ten — which keeps every err·10^n below 2^58. *)
let max_digits = 17

(* Initial one-sided error of X, m± and a half quantum: one unit of
   window truncation plus less than one unit of table truncation
   (t ≥ lf keeps f·θ·2^-t below a unit). *)
let err0 = 2

(* [run]'s verdicts besides a hit: [uncertain] falls back and counts,
   [busy] (a re-entrant call from the same domain: metrics callbacks,
   nested printing) falls back without having attempted anything.  A
   loop whose digit n stalls within its error of the next integer
   returns [stalled + ((n lsl 12) lor (k + 1024))], which [certify]
   turns into a second run or into [uncertain]. *)
let uncertain = -1
let busy = -2
let stalled = -(1 lsl 20)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "BDPRINT_NO_FASTPATH" with
    | Some ("1" | "true" | "yes" | "on") -> false
    | _ -> true)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let hit_counter format =
  Metrics.counter
    ~labels:[ ("format", format) ]
    ~help:"Conversions answered by the table-driven fast path."
    "bdprint_fastpath_hit_total"

let fallback_counter format =
  Metrics.counter
    ~labels:[ ("format", format) ]
    ~help:"Fast-path attempts that returned an uncertain verdict and fell \
           back to the exact kernels."
    "bdprint_fastpath_fallback_total"

let m_hit = hit_counter "free"
let m_fallback = fallback_counter "free"
let m_fixed_hit = hit_counter "fixed"
let m_fixed_fallback = fallback_counter "fixed"

let hit_count () = Metrics.value m_hit
let fallback_count () = Metrics.value m_fallback
let fixed_hit_count () = Metrics.value m_fixed_hit
let fixed_fallback_count () = Metrics.value m_fixed_fallback

(* Per-domain scratch: three 8-limb windows (the scaling entry, the
   product and a half quantum's entry) and a text buffer for the
   digits and their layout, reused across conversions.  [busy] while
   one conversion holds the pool: a kernel run, or a caller that has
   borrowed [text] with [lend] (and then runs the kernel on it). *)
type pool = {
  winc : int array;  (* 5 table limbs + zero padding *)
  winp : int array;  (* 7 product limbs + zero padding *)
  winh : int array;  (* 5 table limbs + zero padding *)
  text : Bytes.t;
  mutable busy : bool;
}
[@@lint.domain_safe
  "only reachable through Domain.DLS; [busy] guards same-domain \
   reentrancy (metrics callbacks, finalisers, threads), not \
   cross-domain sharing"]

let pool_key =
  Domain.DLS.new_key (fun () ->
      {
        winc = Array.make 8 0;
        winp = Array.make 8 0;
        winh = Array.make 8 0;
        text = Bytes.create 64;
        busy = false;
      })

(* Bits [pos, pos+56) of the little-endian 28-bit-limb number in [win].
   The byte-widest read touches limbs pos/28 .. pos/28+2, so callers
   keep zero padding above the populated limbs. *)
let[@lint.no_alloc] window56 (win [@lint.width 28]) (pos [@lint.width 8]) =
  let w = pos / 28 and b = pos mod 28 in
  (Array.unsafe_get win w lsr b)
  lor (Array.unsafe_get win (w + 1) lsl (28 - b))
  lor (Array.unsafe_get win (w + 2) lsl (56 - b))
  land mask56
[@@lint.certified_width 62]

(* Bits [pos, pos+60): the hi limb carries four integer bits on top of
   its 56 fraction bits.  The fourth source limb only contributes when
   the in-limb offset pushes past three limbs' worth of bits. *)
let[@lint.no_alloc] window60 (win [@lint.width 28]) (pos [@lint.width 8]) =
  let w = pos / 28 and b = pos mod 28 in
  (Array.unsafe_get win w lsr b)
  lor (Array.unsafe_get win (w + 1) lsl (28 - b))
  lor (Array.unsafe_get win (w + 2) lsl (56 - b))
  lor (if b >= 25 then Array.unsafe_get win (w + 3) lsl (84 - b) else 0)
  land mask60
[@@lint.certified_width 62]

(* win <- the five limbs of c(q), above the zero padding. *)
let[@inline] [@lint.no_alloc] load_entry (win [@lint.width 28])
    (q [@lint.width_signed 10]) =
  let base = T.limbs_per_entry * (q - T.q_min) in
  Array.unsafe_set win 0 (Array.unsafe_get T.limbs base);
  Array.unsafe_set win 1 (Array.unsafe_get T.limbs (base + 1));
  Array.unsafe_set win 2 (Array.unsafe_get T.limbs (base + 2));
  Array.unsafe_set win 3 (Array.unsafe_get T.limbs (base + 3));
  Array.unsafe_set win 4 (Array.unsafe_get T.limbs (base + 4))
[@@lint.certified_width 62]

(* winp <- f · c, exactly, in 28-bit limbs: f = f1·2^28 + f0 against the
   five limbs of c already loaded in [winc].  Splitting f keeps every
   partial product at or below 2^56 with carry headroom to spare. *)
let[@lint.no_alloc] fill_product (winp [@lint.width 28]) (winc [@lint.width 28])
    (f [@lint.width 53]) =
  let c0 = Array.unsafe_get winc 0
  and c1 = Array.unsafe_get winc 1
  and c2 = Array.unsafe_get winc 2
  and c3 = Array.unsafe_get winc 3
  and c4 = Array.unsafe_get winc 4 in
  let f0 = f land mask28 and f1 = f lsr 28 in
  let x0 = f0 * c0 in
  let x1 = (f0 * c1) + (x0 lsr 28) in
  let x2 = (f0 * c2) + (x1 lsr 28) in
  let x3 = (f0 * c3) + (x2 lsr 28) in
  let x4 = (f0 * c4) + (x3 lsr 28) in
  let y0 = f1 * c0 in
  let y1 = (f1 * c1) + (y0 lsr 28) in
  let y2 = (f1 * c2) + (y1 lsr 28) in
  let y3 = (f1 * c3) + (y2 lsr 28) in
  let y4 = (f1 * c4) + (y3 lsr 28) in
  let s1 = (x1 land mask28) + (y0 land mask28) in
  let s2 = (x2 land mask28) + (y1 land mask28) + (s1 lsr 28) in
  let s3 = (x3 land mask28) + (y2 land mask28) + (s2 lsr 28) in
  let s4 = (x4 land mask28) + (y3 land mask28) + (s3 lsr 28) in
  let s5 = (x4 lsr 28) + (y4 land mask28) + (s4 lsr 28) in
  let s6 = (y4 lsr 28) + (s5 lsr 28) in
  Array.unsafe_set winp 0 (x0 land mask28);
  Array.unsafe_set winp 1 (s1 land mask28);
  Array.unsafe_set winp 2 (s2 land mask28);
  Array.unsafe_set winp 3 (s3 land mask28);
  Array.unsafe_set winp 4 (s4 land mask28);
  Array.unsafe_set winp 5 (s5 land mask28);
  Array.unsafe_set winp 6 s6
[@@lint.certified_width 62]

(* Comparisons between one-sided intervals [a, a+err) on (hi, lo)
   frames.  [le2p a err b]: a + err ≤ b, so the true a is certainly
   below b. *)
let[@inline] [@lint.no_alloc] le2p (ah [@lint.width 61]) (al [@lint.width 56])
    (err [@lint.width 60]) (bh [@lint.width 61]) (bl [@lint.width 56]) =
  let l = al + err in
  let h = ah + (l lsr 56) in
  let l = l land mask56 in
  h < bh || (h = bh && l <= bl)
[@@lint.certified_width 62]

let[@inline] [@lint.no_alloc] gt2 (ah [@lint.width 61]) (al [@lint.width 56])
    (bh [@lint.width 61]) (bl [@lint.width 56]) =
  ah > bh || (ah = bh && al > bl)
[@@lint.certified_width 62]

let[@inline] [@lint.no_alloc] ge2 (ah [@lint.width 61]) (al [@lint.width 56])
    (bh [@lint.width 61]) (bl [@lint.width 56]) =
  ah > bh || (ah = bh && al >= bl)
[@@lint.certified_width 62]

(* The true value certainly reaches one frame unit: the approximation
   never exceeds it, so approximation ≥ 1 (> 1 when the endpoint is
   exclusive) suffices. *)
let[@inline] [@lint.no_alloc] reaches_one ~high_ok (ah [@lint.width 61])
    (al [@lint.width 56]) =
  if high_ok then ge2 ah al one_hi 0 else gt2 ah al one_hi 0
[@@lint.certified_width 62]

(* The §4 tail.  (gh, gl) is g·10^t, where g = frac + m⁺ − inc is the
   distance from the output up to the range's high end in units of the
   last digit.  Position n + t (counting from zero) is a [#] once
   bumping the digit before it stays in range, g·10^t ≥ 1 (> 1 with an
   exclusive high end); until then it is a significant zero.  Returns
   the number of zeros, capped at the total - n positions left, or
   [uncertain] when a test is uncertain or the zero run would outgrow
   the error budget. *)
let[@lint.no_alloc] rec tail_zeros ~high_ok ~n:(n [@lint.width 5])
    ~total:(total [@lint.width 22]) (t [@lint.width 5]) (gh [@lint.width 61])
    (gl [@lint.width 56]) (errv [@lint.width 58]) (errm [@lint.width 58]) =
  if reaches_one ~high_ok gh gl then t
  else if not (le2p gh gl (errv + errm) one_hi 0) then uncertain
  else if n + t + 1 >= total then t + 1
  else if t >= max_digits - n then uncertain
  else begin
    (* g·10^t < 1 frame unit: the mask57 is an identity, and the
       budget check above keeps the errors below 2^58 (header). *)
    let l10 = gl * 10 in
    tail_zeros ~high_ok ~n ~total (t + 1)
      (((gh land mask57) * 10) + (l10 lsr 56))
      (l10 land mask56)
      ((10 * errv) land mask58)
      ((10 * errm) land mask58)
  end
[@@lint.certified_width 62]

(* Digit [d] as ASCII at [buf.[n - 1]]; a buffer shorter than
   [max_digits] fails here, bounds-checked. *)
let[@inline] [@lint.no_alloc] put buf (n [@lint.width 5]) (d [@lint.width 4]) =
  Bytes.set buf (n - 1) (Char.unsafe_chr (48 + d))
[@@lint.certified_width 62]

(* Digit [n], [last], ends the output: the packed verdict, after the
   position rule's tail has classified the positions left from
   g = (gh, gl), the distance up to the range's high end in units of
   digit n. *)
let[@inline] [@lint.no_alloc] finish buf ~high_ok ~tag:(tag [@lint.width 40])
    (n [@lint.width 5]) (last [@lint.width 4]) (gh [@lint.width 61])
    (gl [@lint.width 56]) (errv [@lint.width 58]) (errm [@lint.width 58]) =
  put buf n last;
  let total = (tag lsr 12) land 0x3fffff in
  if total = 0 then (n lsl 12) lor (tag land 0xfff)
  else begin
    let (z [@lint.width_signed 6]) =
      if n > total then uncertain
      else if n = total then 0
      else tail_zeros ~high_ok ~n ~total 0 gh gl errv errm
    in
    if z < 0 then uncertain
    else (z lsl 24) lor (n lsl 12) lor (tag land 0xfff)
  end
[@@lint.certified_width 62]

(* The certified digit loop, shared by both stopping rules.  [tag] is
   k + 1024 under the shortest rule; the position rule adds the total
   number of positions k - j as [total lsl 12], and a second run the
   digit it marks exact as [mark lsl 34].  Returns
   (z lsl 24) lor (n lsl 12) lor (k + 1024) with the n digits in [buf]
   and z significant zeros after them (always 0 under the shortest
   rule), [uncertain], or the [stalled] verdict.  [cap] is the
   output-digit budget, read once per attempt.  All comparisons are
   between one-sided intervals [a, a+err): "a_true op b_true certainly"
   demands the op hold across both intervals. *)
let[@lint.no_alloc] rec loop buf ~cap ~high_ok ~tag:(tag [@lint.width 40])
    (n [@lint.width 5]) (yh [@lint.width 61]) (yl [@lint.width 56])
    (mph [@lint.width 61]) (mpl [@lint.width 56]) (mmh [@lint.width 61])
    (mml [@lint.width 56]) (errv [@lint.width 58]) (errm [@lint.width 58]) =
  if n > cap then Robust.Budget.check_output_digits n;
  let d = yh lsr 56 in
  if d > 9 then uncertain
  else begin
    let fh = yh land mask56 and fl = yl in
    (* The emitted digit is certain only if the true fraction cannot
       reach the next integer.  If it might, the digit stalls.  Once
       [certify] has proved v·10^(n-k) an integer and marked the digit,
       the true value here is exactly d + 1: that is the digit, and its
       remainder of zero is below m⁻, so both rules stop here without a
       tie, whatever m⁺ is, and the tail's g is m⁺ itself. *)
    if not (le2p fh fl errv one_hi 0) then
      if n <> tag lsr 34 then stalled + ((n lsl 12) lor (tag land 0xfff))
      else if d >= 9 then uncertain
      else finish buf ~high_ok ~tag n (d + 1) mph mpl 0 errm
    else begin
      let tc1_true = le2p fh fl errv mmh mml
      and tc1_false = le2p mmh mml errm fh fl in
      let sl = fl + mpl in
      (* fraction + m⁺ < 2 frame units ≪ 2^61: mask61 is identity *)
      let sh = (fh + mph + (sl lsr 56)) land mask61 in
      let sl = sl land mask56 in
      let tc2_true = reaches_one ~high_ok sh sl
      and tc2_false = le2p sh sl (errv + errm) one_hi 0 in
      if not ((tc1_true || tc1_false) && (tc2_true || tc2_false)) then
        uncertain
      else if tc1_false && tc2_false then begin
        if n >= max_digits then uncertain
        else begin
          put buf n d;
          (* On the continue branch tc2 is certainly false: fraction +
             m⁺ < 1 frame unit, so each scaled hi part is below 2^57
             (mask57 identities) and the errors stay below 2·10^17 <
             2^58 (mask58 identities, see the header's error
             discipline). *)
          let l10 = fl * 10 in
          let yh = (fh * 10) + (l10 lsr 56) and yl = l10 land mask56 in
          let p10 = mpl * 10 in
          let mph = ((mph land mask57) * 10) + (p10 lsr 56)
          and mpl = p10 land mask56 in
          let m10 = mml * 10 in
          let mmh = ((mmh land mask57) * 10) + (m10 lsr 56)
          and mml = m10 land mask56 in
          loop buf ~cap ~high_ok ~tag (n + 1) yh yl mph mpl mmh mml
            ((10 * errv) land mask58)
            ((10 * errm) land mask58)
        end
      end
      else begin
        let last =
          if tc1_true && not tc2_true then d
          else if tc2_true && not tc1_true then d + 1
          else begin
            (* Both endpoints in range: the reference breaks the tie by
               comparing 2·frac with one; equality (an exact tie) is
               never certifiable and falls back, so the caller's tie
               strategy is moot on hits. *)
            let t2l = (fl lsl 1) land mask56 in
            let t2h = (fh lsl 1) + (fl lsr 55) in
            if le2p t2h t2l (2 * errv) one_hi 0 then d
            else if gt2 t2h t2l one_hi 0 then d + 1
            else -2
          end
        in
        (* An estimate off by two surfaces here as a digit past 9.  An
           incremented last digit certified fraction + m⁺ ≥ 1, so its
           g = sh − 1 is non-negative (mask61 identity). *)
        if last < 0 || last > 9 then uncertain
        else
          finish buf ~high_ok ~tag n last
            (if last > d then (sh - one_hi) land mask61 else sh)
            sl errv errm
      end
    end
  end
[@@lint.certified_width 62]

(* Premultiplied convention: the loop state starts at
   Y = v·10^(1-k)·2^112 so the first digit is floor(Y).  After the
   fixup (k = est + 1) that is X itself; otherwise X and m± are scaled
   by ten first. *)
let[@lint.no_alloc] start buf ~cap ~high_ok ~tag:(tag [@lint.width 40]) ~fixup
    (xh [@lint.width 61]) (xl [@lint.width 56]) (mph [@lint.width 61])
    (mpl [@lint.width 56]) (mmh [@lint.width 61]) (mml [@lint.width 56]) =
  if fixup then loop buf ~cap ~high_ok ~tag 1 xh xl mph mpl mmh mml err0 err0
  else begin
    (* Estimate not too low: X + m⁺ < 1 frame unit, and m⁻ ≤ m⁺ or a
       half quantum below X, so every hi part here is below 2^57 and
       the mask57s are identities. *)
    let l10 = xl * 10 in
    let yh = ((xh land mask57) * 10) + (l10 lsr 56)
    and yl = l10 land mask56 in
    let p10 = mpl * 10 in
    let mph = ((mph land mask57) * 10) + (p10 lsr 56)
    and mpl = p10 land mask56 in
    let m10 = mml * 10 in
    let mmh = ((mmh land mask57) * 10) + (m10 lsr 56)
    and mml = m10 land mask56 in
    loop buf ~cap ~high_ok ~tag 1 yh yl mph mpl mmh mml (10 * err0) (10 * err0)
  end
[@@lint.certified_width 62]

(* Does the half quantum 10^j/2 reach the half gap 2^(g-1)?  Decided
   exactly: 10^j/2 ≥ 2^(g-1) ⟺ 10^j ≥ 2^g ⟺ floor(log2 10^j) ≥ g, and
   the table stores gamma(j) = floor(log2 10^j) − 127.  Below the
   table, 10^j < 2^-1162 is under every binary64 gap. *)
let[@lint.no_alloc] widens (j [@lint.width_signed 23])
    (g [@lint.width_signed 13]) =
  j >= T.q_min && j <= T.q_max
  && Array.unsafe_get T.exps (j - T.q_min) + 127 >= g
[@@lint.certified_width 62]

(* Loads the entry of 10^(-nh) into [winh]: the half quantum
   H = 10^(-nh)·2^111 frame units is then the window of that entry at
   the returned shift, to within [err0].  Widening needs H ≥ m⁻ ≥
   X·2^-54, so an estimate within one of the scale keeps nh ≤ 16;
   anything else is [uncertain]. *)
let[@lint.no_alloc] half_shift (winh [@lint.width 28]) (nh [@lint.width 23]) =
  if nh > 16 then uncertain
  else begin
    load_entry winh (-nh);
    let s = -(Array.unsafe_get T.exps (-nh - T.q_min) + 111) in
    if s < 16 || s > 83 then uncertain else s
  end
[@@lint.certified_width 62]

(* The position rule's scale at position [j]: k = est + the returned
   0 or 1, or [uncertain].  [kbit0] is the unwidened range's; only a
   widened m⁺ can move it, and m⁺ widens to H inclusively, so then
   too low ⟺ X + H ≥ 1. *)
let[@lint.no_alloc] k_at (winh [@lint.width 28]) ~e:(e [@lint.width_signed 12])
    ~est:(est [@lint.width_signed 11]) ~kbit0:(kbit0 [@lint.width 1])
    ~xh:(xh [@lint.width 60]) ~xl:(xl [@lint.width 56]) (j [@lint.width_signed 23]) =
  let nh = est - j in
  (* A half quantum of 5·10^est or more exceeds v: the exact tier's
     single-digit branch. *)
  if nh < 0 then uncertain
  else if not (widens j e) then kbit0
  else begin
    let s = half_shift winh nh in
    if s < 0 then uncertain
    else begin
      let hh = window60 winh (s + 56) and hl = window56 winh s in
      (* v > 10^j/2 certainly, else the single-digit branch again *)
      if not (le2p hh hl err0 xh xl) then uncertain
      else begin
        let sl = xl + hl in
        let sh = xh + hh + (sl lsr 56) in
        let sl = sl land mask56 in
        if ge2 sh sl one_hi 0 then 1
        else if le2p sh sl (2 * err0) one_hi 0 then 0
        else uncertain
      end
    end
  end
[@@lint.certified_width 62]

(* The position rule: settle j and k, widen each side to the half
   quantum where it reaches the half gap — the widened side becomes
   inclusive, as in [Fixed_format.absolute] — and run the shared loop.
   H ≥ m⁺ implies H ≥ m⁻, so the m⁻ test covers both widenings.

   A relative request (i significant digits) ends at j = k − i, but k
   depends on the widening at j.  [Fixed_format.relative] guesses k
   from the unwidened range and retries while the widened k disagrees.
   One widening suffices here: the widened k at j0 = k0 − i is k0 or
   k0 + 1 (X < 2.1 and H ≤ 1/2 keep X + H below 10), and when it moves
   to k0 + 1 = est + 1, the retry at j0 + 1 lands on est + 1 again —
   widening is monotone in j, and H ≤ 10^k0 / 2 there keeps the range
   below 10^(k0+1) — with v still above its half quantum, so the exact
   tier's second retry confirms the guess. *)
let[@lint.no_alloc] position (winh [@lint.width 28]) buf ~cap
    ~e:(e [@lint.width_signed 12]) ~narrow ~high_ok
    ~est:(est [@lint.width_signed 11]) ~kbit0:(kbit0 [@lint.width 1])
    ~relative ~pos:(pos [@lint.width_signed 21]) ~mark:(mark [@lint.width 5])
    (xh [@lint.width 60]) (xl [@lint.width 56]) (mph [@lint.width 60])
    (mpl [@lint.width 56]) (mmh [@lint.width 60]) (mml [@lint.width 56]) =
  let (kbit [@lint.width_signed 2]) =
    if not relative then k_at winh ~e ~est ~kbit0 ~xh ~xl pos
    else if pos < 1 then uncertain
    else k_at winh ~e ~est ~kbit0 ~xh ~xl (est + kbit0 - pos)
  in
  if kbit < 0 then uncertain
  else begin
    let k = est + kbit in
    let j = if relative then k - pos else pos in
    let nh = est - j in
    if nh < 0 then uncertain
    else begin
      (* total = k − j positions above the shortest rule's biased k *)
      let tag = (mark lsl 34) lor (((kbit + nh) lsl 12) + (k + 1024)) in
      let fixup = kbit = 1 in
      if not (widens j (if narrow then e - 1 else e)) then
        start buf ~cap ~high_ok ~tag ~fixup xh xl mph mpl mmh mml
      else begin
        let s = half_shift winh nh in
        if s < 0 then uncertain
        else begin
          let hh = window60 winh (s + 56) and hl = window56 winh s in
          let wp = widens j e in
          start buf ~cap ~high_ok:(high_ok || wp) ~tag ~fixup xh xl
            (if wp then hh else mph)
            (if wp then hl else mpl)
            hh hl
        end
      end
    end
  end
[@@lint.certified_width 62]

type rule = Shortest | Absolute | Relative

(* a·10 > 1 frame unit for a below one (the mask57 identity): the true
   value, at least a, certainly exceeds a tenth. *)
let[@inline] [@lint.no_alloc] over_tenth (ah [@lint.width 61])
    (al [@lint.width 56]) =
  let l10 = al * 10 in
  gt2 (((ah land mask57) * 10) + (l10 lsr 56)) (l10 land mask56) one_hi 0
[@@lint.certified_width 62]

(* The frame, the certified estimate fixup and the stopping rule's
   loop, with digit [mark] (0: none) taken as exact.  Returns the
   loop's encoding, [uncertain] or [stalled]. *)
let[@lint.no_alloc] run p buf ~cap ~f:(f [@lint.width 53])
    ~lf:(lf [@lint.width 6]) ~e:(e [@lint.width_signed 12]) ~narrow ~high_ok
    ~est:(est [@lint.width_signed 11]) ~rule ~pos:(pos [@lint.width_signed 21])
    ~mark:(mark [@lint.width 5]) =
  let q = -est in
  (* The frame guard below rests on [lf] being f's bit length. *)
  if lf < 1 || lf > 53 || f lsr (lf - 1) <> 1 then uncertain
  else if q < T.q_min || q > T.q_max then uncertain
  else begin
    let gamma = Array.unsafe_get T.exps (q - T.q_min) in
    (* X = floor(P / 2^t) in frame units: P·2^(-t) = f·c·2^(e+gamma+112). *)
    let t = -(e + gamma + 112) in
    (* t ≥ lf+12 bounds the table error below one frame unit AND proves
       P < 2^(t+116), so the 60-bit hi window captures every product
       bit; t ≤ 81 keeps all window reads inside the padded limbs.  A
       reference estimate within one digit of the true scaling always
       lands here (t ≈ lf + 14). *)
    if t < lf + 12 || t > 81 then uncertain
    else begin
      let (winc [@lint.width 28]) = p.winc
      and (winp [@lint.width 28]) = p.winp in
      load_entry winc q;
      fill_product winp winc f;
      let xh = window60 winp (t + 56) and xl = window56 winp t in
      (* m⁺ = 2^(e-1)·10^q = c·2^(-(t+1)); m⁻ shifts once more when the
         mantissa sits on a power-of-two boundary (narrow low gap). *)
      let mph = window60 winc (t + 57) and mpl = window56 winc (t + 1) in
      let mmh = if narrow then window60 winc (t + 58) else mph
      and mml = if narrow then window56 winc (t + 2) else mpl in
      (* Estimate fixup, certified: too_low ⟺ X + m⁺ ≥ 1 (or > without
         high_ok), mirroring Scaling.scale_estimated. *)
      let sl0 = xl + mpl in
      let sh0 = xh + mph + (sl0 lsr 56) in
      let sl0 = sl0 land mask56 in
      let too_low_true = reaches_one ~high_ok sh0 sl0
      and too_low_false = le2p sh0 sl0 (2 * err0) one_hi 0 in
      if not (too_low_true || too_low_false) then uncertain
      (* Nor too high: k - 1 must fail the same test, X + m⁺ > 1/10 (≥
         without high_ok).  [Scaling.fast_estimate_b10] is never too
         high, and it clears this by m⁺ ≫ the error; a caller's larger
         estimate would scale a leading zero into the digits. *)
      else if not (too_low_true || over_tenth sh0 sl0) then uncertain
      else begin
        match rule with
        | Shortest ->
          let k = if too_low_true then est + 1 else est in
          start buf ~cap ~high_ok
            ~tag:((mark lsl 34) lor (k + 1024))
            ~fixup:too_low_true xh xl mph mpl mmh mml
        | Absolute | Relative ->
          let (winh [@lint.width 28]) = p.winh in
          position winh buf ~cap ~e ~narrow ~high_ok ~est
            ~kbit0:(if too_low_true then 1 else 0)
            ~relative:(rule = Relative) ~pos ~mark xh xl mph mpl mmh mml
      end
    end
  end
[@@lint.certified_width 62]

(* Does v·10^m = f·2^(e+m)·5^m have no denominator?  It is an integer
   exactly when f carries the 2^-(e+m) and, for m < 0, the 5^-m that
   would divide it; a positive f < 2^53 carries at most 2^52 and 5^22. *)
let[@lint.no_alloc] rec fives (f [@lint.width 53]) (j [@lint.width 5]) =
  if j <= 0 then true
  else if f mod 5 <> 0 then false
  else fives (f / 5) (j - 1)
[@@lint.certified_width 62]

let[@lint.no_alloc] integral (f [@lint.width 53]) (e [@lint.width_signed 12])
    (m [@lint.width_signed 13]) =
  let s = -(e + m) in
  (if s <= 0 then true
   else if s >= 53 then false
   else f land ((1 lsl s) - 1) = 0)
  && if m >= 0 then true else if m <= -23 then false else fives f (-m)
[@@lint.certified_width 62]

(* One attempt: [run], then, if digit n stalled and [integral] proves
   its remainder zero (m = n - k), one more run with digit n marked.
   Hits never pay for the test; a re-run repeats the frame and the
   digits before n, well under the exact tier's cost. *)
let[@lint.no_alloc] certify p buf ~cap ~f:(f [@lint.width 53])
    ~lf:(lf [@lint.width 6]) ~e:(e [@lint.width_signed 12]) ~narrow ~high_ok
    ~est:(est [@lint.width_signed 11]) ~rule ~pos:(pos [@lint.width_signed 21])
    =
  let r = run p buf ~cap ~f ~lf ~e ~narrow ~high_ok ~est ~rule ~pos ~mark:0 in
  if r >= uncertain then r
  else begin
    (* [stalled] is a multiple of 2^17: the low bits are n and k + 1024 *)
    let s = r land 0x1ffff in
    let n = s lsr 12 in
    if not (integral f e (n + 1024 - (s land 0xfff))) then uncertain
    else begin
      let r = run p buf ~cap ~f ~lf ~e ~narrow ~high_ok ~est ~rule ~pos ~mark:n in
      if r >= uncertain then r else uncertain
    end
  end
[@@lint.certified_width 62]

(* One kernel run on this domain's pool.  A caller holding the pool
   through [lend] passes its [text] and runs at once; any other buffer
   takes the pool for the run, or gets [busy] when it is held
   (re-entered from the same domain).  An exception (a budget error)
   frees the pool either way, so a lent buffer goes back with it.  The
   deadline is checked and the digit cap read here, once per attempt;
   the loop only compares its count with the cap. *)
let attempt buf ~f ~e ~mantissa_bits ~narrow ~high_ok ~est ~rule ~pos =
  let p = Domain.DLS.get pool_key in
  let lent = buf == p.text in
  if p.busy && not lent then busy
  else begin
    p.busy <- true;
    (* Not [Fun.protect]: the two closures it allocates are measurable
       at this call rate.  Only the budget hooks raise. *)
    match
      Robust.Budget.check_deadline ();
      let cap = (Robust.Budget.get ()).Robust.Budget.max_output_digits in
      certify p buf ~cap ~f ~lf:mantissa_bits ~e ~narrow ~high_ok ~est ~rule
        ~pos
    with
    | r ->
      if not lent then p.busy <- false;
      r
    | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      p.busy <- false;
      Printexc.raise_with_backtrace ex bt
  end

let lend n =
  let p = Domain.DLS.get pool_key in
  if p.busy || n > Bytes.length p.text then Bytes.create (max n max_digits)
  else begin
    p.busy <- true;
    p.text
  end

let give_back b =
  let p = Domain.DLS.get pool_key in
  if b == p.text then p.busy <- false

let digit_count r = (r lsr 12) land 0xfff
let point r = (r land 0xfff) - 1024
let zero_count r = r lsr 24

let convert_shortest buf ~f ~e ~mantissa_bits ~narrow ~high_ok ~est =
  let r =
    attempt buf ~f ~e ~mantissa_bits ~narrow ~high_ok ~est ~rule:Shortest
      ~pos:0
  in
  if Metrics.enabled () then
    if r >= 0 then Metrics.incr m_hit
    else if r = uncertain then Metrics.incr m_fallback;
  r

let pos_limit = 1 lsl 20

let convert_fixed buf ~relative ~pos ~f ~e ~mantissa_bits ~narrow ~high_ok
    ~est =
  if pos <= -pos_limit || pos >= pos_limit then uncertain
  else begin
    let rule = if relative then Relative else Absolute in
    let r = attempt buf ~f ~e ~mantissa_bits ~narrow ~high_ok ~est ~rule ~pos in
    if Metrics.enabled () then
      if r >= 0 then Metrics.incr m_fixed_hit
      else if r = uncertain then Metrics.incr m_fixed_fallback;
    r
  end
