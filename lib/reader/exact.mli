(** Accurate floating-point input (Clinger [1], Algorithm M style).

    The paper's free-format guarantee is stated relative to "an accurate
    floating-point input routine": the printed string must convert back to
    the very same float, whatever rounding rule the reader applies.  This
    module is that routine, built on exact integer arithmetic so there is
    no double-rounding anywhere: given a decimal string and a target
    format, it returns the {e correctly rounded} value under any of the six
    rounding modes in {!Fp.Rounding}.

    It doubles as the verification half of every round-trip test in this
    repository.

    {b Robustness contract.}  The [result]-returning entry points never
    raise, for any input: failures come back as {!Robust.Error.t} (syntax
    errors with positions, budget violations for pathological sizes,
    internal faults).  Inputs whose magnitude is far outside the format —
    [1e999999999] and friends — are decided by a fast-reject gate into the
    correctly rounded extreme (zero, minimum denormal, largest finite or
    infinity, depending on the rounding mode) {e without} building the
    corresponding bignum power, in time independent of the exponent. *)

type decimal = {
  neg : bool;
  digits : Bignum.Nat.t;  (** the digit string read as an integer *)
  exp10 : int;  (** value is [±digits × 10^exp10] *)
}

type parsed = Number of decimal | Infinity of bool | Not_a_number

val parse : string -> (parsed, Robust.Error.t) result
(** Accepts [[+-]? digits [. digits]? ([eE] [+-]? digits)?], plus ["inf"],
    ["infinity"] and ["nan"] (case-insensitive), with [_] digit separators.
    Exponent magnitudes are clamped at two billion (far beyond every
    representable range, and settled by the fast-reject gate); inputs
    longer than the {!Robust.Budget} cap return a budget error. *)

val exp_clamp : int
(** Two billion: {!parse} stops accumulating exponent digits at this
    magnitude and clamps the exponent to it. *)

val load_digits :
  Bignum.Scratch.t -> string -> first:int -> stop:int -> limit:int -> int
(** [load_digits t s ~first ~stop ~limit] sets [t] to the integer
    spelled by the first [limit] significant decimal digits of [s] from
    [first] up to (not including) [stop], and returns the index past the
    last digit it took ([stop] when it took them all).  Other bytes in
    that span (the radix point, [_] separators) are skipped.  Nine digits
    per multiply-add, straight from the string; {!parse} builds its
    digits with it and {!Fast_reader}'s midpoint comparison loads its
    workspace with it.  Allocates only when [t] must grow. *)

val check_scale_budget : bits:int -> int -> unit
(** The budget checks {!read_decimal} makes before it builds
    [10^|exp10|] against a [bits]-bit digit integer: the exponent
    magnitude, then the bit size of the scaled operand.  Raises
    [Robust.Error.E] like the {!Robust.Budget} checks it calls. *)

val read_decimal :
  ?mode:Fp.Rounding.mode -> Fp.Format_spec.t -> decimal -> Fp.Value.t
(** Correctly rounded conversion of an exact decimal into the format.
    Overflow follows IEEE semantics per mode (directed modes toward zero
    saturate at the largest finite value); underflow reaches denormals and
    then signed zero.  Default mode is round-to-nearest-even.  May raise
    [Robust.Error.E] on a budget violation (callers arriving through
    {!read} get it as [Error]). *)

val read :
  ?mode:Fp.Rounding.mode ->
  Fp.Format_spec.t ->
  string ->
  (Fp.Value.t, Robust.Error.t) result
(** [parse] followed by {!read_decimal}.  Never raises. *)

val read_float :
  ?mode:Fp.Rounding.mode -> string -> (float, Robust.Error.t) result
(** Convenience wrapper targeting binary64 and returning an OCaml float. *)

val read_ratio :
  ?mode:Fp.Rounding.mode -> Fp.Format_spec.t -> Bignum.Ratio.t -> Fp.Value.t
(** Correctly rounded conversion of an arbitrary (possibly negative)
    rational — the general core the decimal entry points wrap. *)

val decide_extreme :
  ?mode:Fp.Rounding.mode ->
  Fp.Format_spec.t ->
  neg:bool ->
  base:int ->
  bits:int ->
  scale:int ->
  Fp.Value.t option
(** The fast-reject gate, shared with the hex reader.  For a non-zero
    magnitude [m × base^scale] where [m] has [bits] significant bits:
    [Some v] when the magnitude is provably beyond the format's overflow
    or underflow cliff (with a safety margin), in which case [v] is the
    correctly rounded extreme under [mode]; [None] when the value may be
    in range and the exact path must run. *)

val read_in_base :
  ?mode:Fp.Rounding.mode ->
  base:int ->
  Fp.Format_spec.t ->
  string ->
  (Fp.Value.t, Robust.Error.t) result
(** Read a string written in an arbitrary base (2-36), as produced by
    {!Dragon.Render}: digits [0-9a-z] (case-insensitive), an optional
    radix point, and an optional exponent part introduced by ['e'] (bases
    up to 14) or ['^'] (all bases), whose value is a {e decimal} integer
    scaling by powers of [base].  [#] characters are accepted and read as
    zero digits, so fixed-format output with significance marks reads
    back directly.  A base outside 2..36 is a [Range] error (never an
    exception). *)
