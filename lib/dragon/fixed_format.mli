(** Fixed-format conversion (paper, Section 4): correctly rounded output
    to a requested digit position, with [#] marks past the point where the
    floating-point value stops carrying information.

    A position request is either {e absolute} — stop at the [base^j]
    place — or {e relative} — produce [i] significant digits.  The
    rounding range of the value is widened (never narrowed) to the
    half-quantum [base^j / 2] on each side where the quantum dominates the
    float gap; where the float gap dominates instead, trailing positions
    cannot affect the value read back and are printed as [#]. *)

type request = Absolute of int | Relative of int

type digit = Digit of int | Hash

type t = {
  digits : digit array;
      (** positions [k-1, k-2, ..., j] most significant first; [#] only in
          a (possibly empty) suffix *)
  k : int;  (** the value printed is [0.d1 d2 ... × base^k] *)
}

val convert :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  request ->
  (t, Robust.Error.t) result
(** Fixed-format digits for the magnitude of a non-zero finite value.
    [tie] (default [Closer_up], as in the paper) breaks exact half-quantum
    ties.

    Never raises: a base outside 2..36 or [Relative i] with [i < 1] is a
    [Range] error, and a request whose digit span exceeds the
    {!Robust.Budget} cap ([--places 1000000] style) is a [Budget] error
    — vetted {e before} any bignum scaling work, so pathological
    requests fail in constant time.  An [Absolute] position far above
    the value short-circuits to the single rounded zero digit.

    Valid decimal requests on binary formats with mantissas below 2^53
    run on the table tier first ({!Free_format.fixed_tier}), whose
    output is byte-identical by construction; an uncertain verdict
    falls back to the exact tier.
    There, scaling always uses the estimator seeded on the range's
    upper bound ({!Scaling.scale_on_high}), which stays within one of
    the true scale factor even when the quantum dwarfs the value. *)

val convert_exn :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  request ->
  t
(** {!convert} for call sites with statically valid arguments (tests,
    examples, internal drivers).
    @raise Robust.Error.E on what [convert] would report as [Error]. *)

(** {2 The two tiers}

    {!convert_exn} vets the request, then runs the table tier with the
    exact tier behind it; {!Printer} runs the same steps so a hit goes
    from the kernel's digits straight to text. *)

val vet : base:int -> Fp.Format_spec.t -> Fp.Value.finite -> request -> t option
(** The budget vetting that precedes both tiers: [Some t] answers an
    [Absolute] position far above the value (one rounded zero digit)
    without either tier.
    @raise Robust.Error.E when the request's digit span exceeds the
    output-digit cap. *)

val exact :
  base:int ->
  mode:Fp.Rounding.mode ->
  tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  request ->
  t
(** The exact tier alone, on a vetted request. *)

val check_request : base:int -> request -> unit
(** The argument checks {!convert} makes before looking at the value.
    @raise Robust.Error.E with a [Range] error for a base outside
    2..36 or [Relative i] with [i < 1]. *)

val significant_digits : t -> int
(** Number of non-[#] positions. *)

val to_ratio : base:int -> t -> Bignum.Ratio.t
(** Exact value denoted, reading [#] as [0]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
