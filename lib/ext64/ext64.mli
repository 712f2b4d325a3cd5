(** A tiny software model of x87-style extended precision: positive reals
    as a 64-bit mantissa (top bit set) and a power-of-two exponent, with
    multiplication rounded to nearest-even.

    This is what made mid-90s [printf]s {e mostly} right at 17 digits:
    scaling by powers of ten in a 64-bit-mantissa format carries ~19.2
    decimal digits, so the 17th digit only flips when the value sits
    within a few thousandths of a rounding boundary — the 0.1%-2.5%
    incorrect rates of Table 3.  {!Float_fixed} is built on it. *)

type t = private {
  m : int64;  (** unsigned mantissa, [2^63 <= m < 2^64] *)
  e : int;  (** value is [m × 2^e] *)
}

val umul128 : int64 -> int64 -> int64 * int64
(** [(high, low)] halves of the full unsigned 64x64→128-bit product of
    two int64 bit patterns — the shared 128-bit primitive under {!mul}
    and the cross-check tests for the fast path's 28-bit-limb products
    ({!Fastpath.convert_shortest} carves its Q4.112 frame out of the
    same product computed limbwise in native ints). *)

val of_float : float -> t
(** Exact embedding of a positive finite double. *)

val of_int : int -> t
(** Exact embedding of a positive integer up to 62 bits. *)

val mul : t -> t -> t
(** Product rounded to nearest-even at 64 bits. *)

val pow10 : int -> t
(** [10^n] for [-350 <= n <= 350], assembled by chunked multiplication of
    the correctly rounded powers [10^(±2^i)] from {!pow10_correct}, each
    product rounded (so large powers carry a few ulps of error, like the
    tables the mid-90s implementations shipped).  This is the {e model}
    table used by {!Float_fixed}. *)

val pow10_correct : int -> t
(** [10^n] for [-350 <= n <= 350], correctly rounded to 64 bits: read on
    each call off the 128-bit entry of {!Fastpath.Pow10_table}, the same
    table the printer's table tier uses, and rounded on its bit 63.  This
    is the table the {e certified} fast paths use: with it, a scaled
    product carries at most ~1 ulp of error, which keeps their fallback
    rates low. *)

val to_int64_round : t -> int64
(** Nearest integer (ties to even).
    @raise Invalid_argument when the value exceeds 2^62. *)

val to_float : t -> float
(** Nearest double, for debugging. *)
