(** Reading C17 hexadecimal floating-point literals
    ([[+-]?0x h.hhh p±ddd]) with correct rounding into any binary format.

    Hexadecimal literals describe the value exactly ([h × 2^p] with a
    power-of-two scale), so for the format they were printed from the
    conversion is lossless; reading into a narrower format (binary32,
    binary16) performs a single correct rounding in the requested mode —
    which makes this a convenient exact input channel for tests and
    examples. *)

val is_literal : string -> bool
(** Whether [s] starts like a hex literal: an optional [+] or [-], then
    [0x] or [0X].  The routing test shared by [bdprint] and [bdprintd]:
    an input that passes goes to {!read}, which reports a malformed rest
    as a [Syntax] error ("no hex digits" for a bare [0x]).  Allocates
    nothing. *)

val read :
  ?mode:Fp.Rounding.mode ->
  Fp.Format_spec.t ->
  string ->
  (Fp.Value.t, Robust.Error.t) result
(** Never raises: malformed literals are [Syntax] errors, oversized
    inputs are [Budget] errors, and astronomically scaled exponents
    ([0x1p999999999]) are fast-rejected to the correctly rounded extreme
    without building the corresponding power of two. *)

val read_float :
  ?mode:Fp.Rounding.mode -> string -> (float, Robust.Error.t) result
(** Into binary64, as an OCaml float. *)
