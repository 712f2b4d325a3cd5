(** In-place bignum kernels: mutable fixed-capacity limb workspaces for
    the digit-generation hot path and the fast reader's midpoint
    comparison.

    The pure {!Nat} substrate allocates a fresh limb array for every
    result, which is the right call everywhere except the Figure-3
    digit loop, where 4–6 fresh arrays per emitted digit turn the
    printer into a minor-GC benchmark.  A {!t} owns a growable
    little-endian array of 30-bit limbs (the same representation as
    [Nat]) and every kernel below mutates it in place.  The backing
    array grows geometrically and never shrinks, so a workspace pooled
    across conversions reaches a steady state after which {e no kernel
    allocates}.

    Workspaces are not thread-safe; pool them per domain
    ([Domain.DLS]), as {!Dragon.Generate} and the fast reader's midpoint
    comparison do.

    Values past [length t] limbs are garbage — a workspace is not a
    [Nat] and never escapes; convert at the boundary with {!to_nat} /
    {!set_nat}. *)

type t

exception Quotient_overflow
(** Raised by {!div_digit} when the quotient does not fit a single
    30-bit limb, i.e. the caller broke the [r < 2^30 * s] precondition
    (in the printer: the scaling invariant).  Nothing has been mutated
    when this is raised; callers fall back to the pure [Nat] path. *)

val create : int -> t
(** [create capacity] is a zero-valued workspace with room for
    [capacity] limbs (at least 1). *)

val of_nat : Nat.t -> t
val set_nat : t -> Nat.t -> unit

val set_int : t -> int -> unit
(** Load a non-negative native int.
    @raise Invalid_argument if negative. *)

val to_nat : t -> Nat.t
(** A fresh immutable snapshot (allocates — boundary use only). *)

val copy_into : src:t -> dst:t -> unit
(** [dst := src]. *)

val is_zero : t -> bool

val length : t -> int
(** Significant limbs; 0 for zero. *)

val capacity : t -> int
(** Backing-array size in limbs — the pool high-water statistic. *)

val bit_length : t -> int
(** Significant bits; 0 for zero. *)

val compare : t -> t -> int

(** {1 Destructive kernels}

    Each runs in one pass over the operand and allocates only when the
    backing array must grow. *)

val add_in_place : t -> t -> unit
(** [add_in_place a b] is [a := a + b].  Aliasing [a == b] is safe. *)

val sub_in_place : t -> t -> unit
(** [sub_in_place a b] is [a := a - b]; requires [a >= b].
    @raise Invalid_argument on a negative result (checked first;
    [a] is unchanged). *)

val mul_add_in_place : t -> int -> int -> unit
(** [mul_add_in_place a m c] is [a := a * m + c].  It requires
    [0 <= m, c < 2^30] and, like {!add_in_place}, does not check it. *)

val mul_int_in_place : t -> int -> unit
(** [mul_int_in_place a m] is [a := a * m] with [0 <= m < 2^30].
    @raise Invalid_argument outside the limb range. *)

val shift_left_in_place : t -> int -> unit
(** [shift_left_in_place a k] is [a := a * 2^k], [k >= 0]. *)

(** {1 Invariant-divisor short division}

    The Figure-3 loop divides by the same denominator [s] on every
    iteration, and after correct scaling every quotient is a digit
    ([d < B]).  So the divisor is prepared {e once} per conversion —
    normalized so its top limb has the high bit set — and each
    iteration runs a single step of Knuth's Algorithm D: the quotient
    is estimated from the top two limbs of the dividend and corrected
    at most twice, with at most one add-back. *)

val normalize_divisor : t -> Nat.t -> int
(** [normalize_divisor d s] loads [s * 2^shift] into [d], where [shift]
    places the high bit of the top limb, and returns [shift].  The
    caller must scale every dividend by the same [2^shift] (the loop's
    termination tests are homogeneous in the state, so scaling the
    whole state is free).
    @raise Division_by_zero on a zero divisor. *)

val div_digit : t -> t -> int
(** [div_digit r d] with [d] prepared by {!normalize_divisor} returns
    [floor(r/d)] and leaves [r := r mod d].  The quotient must fit one
    limb ([r < 2^30 * d]).
    @raise Quotient_overflow otherwise, with [r] unchanged.
    @raise Division_by_zero on a zero divisor. *)

(** {1 Internal checks} *)

val check_invariant : t -> bool
(** Significant limbs within range and no high zero limb; tests only. *)
