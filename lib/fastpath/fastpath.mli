(** Table-driven fixed-precision digit generation.

    Runs the Burger-Dybvig digit loop on a Q4.112 fixed-point frame
    built from an exact 53x128-bit product of the mantissa and a
    truncated power of ten ({!Pow10_table}), certifying every digit and
    every stopping comparison against one-sided error intervals.  Any
    comparison the intervals cannot decide yields an {e uncertain}
    verdict (a negative int) and the caller falls back to the exact
    scratch/word kernels, so hits are byte-identical to the pure
    reference by construction.

    One loop serves two stopping rules: {e shortest} (free format,
    {!convert_shortest}) and {e position} (fixed format, paper §4,
    {!convert_fixed}).

    The shared gate lives in [Dragon.Free_format.table_tier]; this
    module is kept free of [Dragon] types so the dependency points one
    way. *)

module Pow10_table : sig
  val q_min : int
  val q_max : int
  val limbs_per_entry : int

  val exps : int array
  (** [exps.(q - q_min)] = gamma(q) = floor(log2 10^q) - 127. *)

  val limbs : int array
  (** [limbs.(limbs_per_entry * (q - q_min) + i)] is the i-th 28-bit
      limb (least significant first) of c(q) = floor(10^q·2^(-gamma(q))),
      2^127 <= c(q) < 2^128.  Generated by tools/gen_pow10.ml and
      re-derived from exact Nat arithmetic by test_fastpath. *)
end

val max_digits : int
(** 17: the most digits one attempt writes, and so the least a buffer
    passed to {!convert_shortest} or {!convert_fixed} must hold. *)

val convert_shortest :
  Bytes.t ->
  f:int ->
  e:int ->
  mantissa_bits:int ->
  narrow:bool ->
  high_ok:bool ->
  est:int ->
  int
(** [convert_shortest buf ~f ~e ~mantissa_bits ~narrow ~high_ok ~est]
    writes the certified shortest digits of v = f·2^e into [buf] as
    ASCII, most significant first — exactly what [Generate.free] would
    produce — and returns the packed verdict: {!digit_count} digits and
    decimal point position {!point}.  The verdict is negative when any
    step is uncertain or the kernel is busy (re-entered on this domain);
    [buf] then holds nothing of use.  [buf] should hold
    {!max_digits} bytes; a digit past its end raises
    [Invalid_argument].

    [f] is the mantissa, [mantissa_bits] its bit length, [e] the
    binary exponent, [narrow] whether the low gap is halved (mantissa
    on a power-of-two boundary), [high_ok] the upper-boundary
    inclusivity from [Rounding.boundary_ok], and [est] the caller's
    [Fast_estimate] of ceil(log10 v) — passed in so the certified fixup
    works from the same estimate the reference path would use.  Neither
    is trusted: a [mantissa_bits] that is not f's bit length (or an [f]
    past 53 bits) gives an uncertain verdict, and so does an [est] from
    which the certified fixup cannot reach the digits' own scale k, so
    a wrong estimate never yields digits at another scale.  The
    lower-boundary flag [low_ok] is deliberately absent: it only
    changes the outcome when the remainder equals m⁻ exactly, which the
    one-sided intervals can never certify, so those inputs always fall
    back.  The one equality the kernel does decide is a remainder of
    exactly zero, by an integer test on [f] and [e]: exact decimals
    such as 3.75 or 1234 are hits.

    Budgets: each attempt checks the deadline once
    ({!Robust.Budget.check_deadline}) and reads the output-digit cap
    once; the loop compares its count with that cap and calls
    {!Robust.Budget.check_output_digits} only past it, so a capped
    conversion raises at the same digit, with the same error, as the
    reference loop.  The exact tier keeps its check on every digit; an
    attempt is at most 17 digits, so a deadline that expires during one
    goes unseen for well under a microsecond.  May not be called while
    any fault point is armed (the dispatcher checks
    {!Robust.Faults.any_armed}): the fast path has no bignum trip
    sites, so running it would desynchronize differential fault
    schedules. *)

val convert_fixed :
  Bytes.t ->
  relative:bool ->
  pos:int ->
  f:int ->
  e:int ->
  mantissa_bits:int ->
  narrow:bool ->
  high_ok:bool ->
  est:int ->
  int
(** [convert_fixed buf ~relative ~pos] is {!convert_shortest}'s
    position rule: [pos] significant digits when [relative], else
    digits down to the absolute position [10^pos].  A non-negative
    verdict is what [Dragon.Fixed_format] would produce: the
    {!digit_count} generated digits in [buf], the decimal point
    position {!point}, and {!zero_count} significant zeros that follow
    them before the [#] marks begin, out of [pos] positions (relative)
    or [point - pos] (absolute).

    Each side of the range widens to the half quantum where that
    reaches the float's half gap (decided exactly from the table's
    exponents) and becomes inclusive.  A relative request settles its
    position where [Fixed_format.relative]'s retries do: k of the
    unwidened range, moved up by one when widening at that position
    reaches the next power of ten.  After a zero remainder the
    positions left are significant zeros until the high end of the
    range is a unit away ([3.7500000000000000] at 17 digits).
    Uncertain, besides any undecided comparison: a position at or above
    the value's leading digit (the exact tier's single-digit case), an
    exact tie, and a zero run past the error budget.  [|pos|] must stay
    below 2^20; larger requests are not attempted. *)

val lend : int -> Bytes.t
(** [lend n]: this domain's 64-byte text buffer when [n] fits it and
    the domain's kernel pool is free, else a fresh buffer of at least
    [max n max_digits] bytes.  While lent, the buffer holds the pool: a
    kernel run on it goes ahead, one on any other buffer gets the busy
    verdict, and so does a nested conversion (a finaliser, another
    thread of the domain).  For the digits of one conversion and their
    layout; pass it back with {!give_back}, also on an exception, or
    the domain's table tier stays shut.  A budget error raised by
    {!convert_shortest} or {!convert_fixed} on a lent buffer gives it
    back itself. *)

val give_back : Bytes.t -> unit
(** Returns a buffer from {!lend}; a fresh one is simply dropped. *)

val digit_count : int -> int
(** The number of digits a non-negative verdict wrote. *)

val point : int -> int
(** The decimal point position [k] of a non-negative verdict: the value
    is [0.d1 d2 ... × 10^k]. *)

val zero_count : int -> int
(** The significant zeros after the digits of a {!convert_fixed}
    verdict (0 for {!convert_shortest}). *)

val enabled : unit -> bool
(** Dispatch gate, true by default; [BDPRINT_NO_FASTPATH=1] in the
    environment flips the initial value. *)

val set_enabled : bool -> unit
(** Flip the dispatch gate at runtime (benchmarks measure the exact
    kernels by turning the fast path off; tests compare both paths). *)

val hit_count : unit -> int
(** Value of the [bdprint_fastpath_hit_total{format="free"}] counter
    (free-format conversions answered by the fast path).  Recorded only
    while telemetry is enabled, like every other counter. *)

val fallback_count : unit -> int
(** Value of the [bdprint_fastpath_fallback_total{format="free"}]
    counter (attempts that returned uncertain and fell back).  The
    fallback {e rate} is [fallback / (hit + fallback)]; conversions
    that never qualified for an attempt (mantissas over 53 bits,
    directed rounding) are counted in neither. *)

val fixed_hit_count : unit -> int
(** The same counters for fixed format, [format="fixed"]. *)

val fixed_fallback_count : unit -> int
