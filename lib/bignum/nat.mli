(** Arbitrary-precision natural numbers.

    Values are immutable little-endian arrays of 30-bit limbs stored in
    native [int]s, so every intermediate product of two limbs plus carries
    fits comfortably in a 63-bit integer.  This module is the workhorse
    substrate for the Burger--Dybvig printer: the scaled numerator [r],
    denominator [s] and gap widths [m+]/[m-] of an IEEE double reach
    magnitudes around [2^1100], and the power table goes up to [10^325].

    All functions are total on naturals; subtraction raises on a negative
    result and division raises [Division_by_zero] on a zero divisor. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)

val to_int_or : default:int -> t -> int
(** [to_int_or ~default n] is [n] when it fits in a native [int], else
    [default]: {!to_int_opt} without the [Some], for hot paths that read
    a mantissa as an int. *)

val to_int_exn : t -> int
(** Like {!to_int_opt} but raises [Failure] on overflow. *)

val of_int64_unsigned : int64 -> t
(** Interpret the bit pattern as an unsigned 64-bit integer. *)

val to_int64_unsigned_opt : t -> int64 option
(** [Some bits] when the value fits 64 unsigned bits. *)

val to_float : t -> float
(** Nearest-ish double approximation (correct to about 60 bits; values past
    the double range become [infinity]).  Used only for estimators. *)

val frexp : t -> float * int
(** [frexp n] is [(m, e)] with [n ≈ m *. 2. ** e] and [0.5 <= m < 1.]
    ([(0., 0)] for zero).  The fraction carries the top 60 bits of [n]. *)

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Arithmetic} *)

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** [sub a b] requires [a >= b].
    @raise Invalid_argument otherwise. *)

val succ : t -> t
val pred : t -> t
(** @raise Invalid_argument on [pred zero]. *)

val mul : t -> t -> t
(** Schoolbook below {!karatsuba_threshold} limbs, Karatsuba above. *)

val mul_int : t -> int -> t
(** [mul_int a m] with [0 <= m < 2^30]. *)

val mul_schoolbook : t -> t -> t
(** Quadratic multiplication, exposed for the bignum ablation bench. *)

val mul_karatsuba : t -> t -> t
(** Karatsuba multiplication regardless of size, for the ablation bench. *)

val karatsuba_threshold : int
(** Limb count at which {!mul} switches to Karatsuba. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D).
    @raise Division_by_zero if [b] is zero. *)

val divmod_int : t -> int -> t * int
(** [divmod_int a b] with [0 < b < 2^30]. *)

val pow : t -> int -> t
(** [pow b k] is [b^k]; [k] must be non-negative. *)

val pow_int : int -> int -> t
(** [pow_int b k] is [(of_int b)^k]. *)

val gcd : t -> t -> t

val isqrt : t -> t * t
(** [isqrt n] is [(s, r)] with [s*s + r = n] and [s*s <= n < (s+1)*(s+1)]
    (integer square root with remainder, Newton's method). *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool

(** {1 Radix conversion} *)

val of_string : string -> t
(** Decimal by default; accepts [0x]/[0o]/[0b] prefixes and [_] separators.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val of_base_digits : base:int -> int array -> t
(** Digits most-significant first, each in [0, base); [base] in [2, 36]. *)

val to_base_digits : base:int -> t -> int array
(** Digits most-significant first; [zero] yields [[|0|]]. *)

val to_string_base : base:int -> t -> string
(** Textual form in any base 2-36, digits beyond 9 as lowercase
    letters. *)

val of_string_base : base:int -> string -> t
(** Inverse of {!to_string_base}; accepts uppercase letters and [_]
    separators.
    @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

(** {1 Kernel interface}

    For the in-place {!Scratch} workspaces, which share the 30-bit limb
    representation.  Not for general use. *)

val limbs : t -> int array
(** The backing little-endian limb array itself, {e not} a copy.  The
    caller must never mutate it — [Nat.t] values are shared. *)

val of_limbs_copy : int array -> int -> t
(** [of_limbs_copy a len] copies the first [len] limbs (each in
    [0, 2^30)) into a fresh normalized value.
    @raise Invalid_argument on a bad length. *)

(** {1 Internal checks} *)

val check_invariant : t -> bool
(** No high zero limb and every limb within [0, 2^30); used by tests. *)
