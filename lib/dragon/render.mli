(** Turning digit strings into text.

    The conversion results say "the value is [0.d1 d2 ... × base^k]"; this
    module lays that out either positionally ([123.45], [0.00123]) or in
    scientific notation ([1.2345e2]), in any base up to 36 (digits beyond
    9 print as lowercase letters).  [#] marks from fixed format are
    preserved as written. *)

type notation =
  | Auto  (** positional for moderate exponents, scientific otherwise *)
  | Scientific
  | Positional

val digit_char : int -> char
(** 0-9 then a-z.
    @raise Invalid_argument outside [0, 35]. *)

val exponent_marker : int -> char
(** ['e'] up to base 14; ['^'] beyond, where [e] is itself a digit. *)

val layout :
  notation:notation -> neg:bool -> k:int -> base:int -> Bytes.t -> int -> string
(** [layout ~notation ~neg ~k ~base src n] is the text of
    [0.c1 c2 ... cn × base^k], where [c1 ... cn] are the first [n]
    characters of [src] (digits or [#] marks).  The exact length is
    worked out first from the sign, [n], [k], the notation and the
    base, and one [Bytes] of that length is filled and returned as the
    string.  {!free}, {!fixed} and the table tier's hits all lay out
    through it.
    @raise Invalid_argument unless [0 <= n <= Bytes.length src]
    (from [Bytes]'s own bounds checks). *)

val marks : Bytes.t -> digits:int -> zeros:int -> total:int -> Bytes.t
(** [marks src ~digits ~zeros ~total] fills a fixed-format result's
    positions after its [digits] characters: [zeros] significant zeros,
    then [#] marks up to [total].  In place when [total] fits [src],
    else in a buffer of its own length that starts with a copy of the
    digits. *)

val free : ?notation:notation -> ?neg:bool -> base:int -> Free_format.t -> string

val fixed :
  ?notation:notation -> ?neg:bool -> base:int -> Fixed_format.t -> string

val zero : ?neg:bool -> unit -> string
val infinity : ?neg:bool -> unit -> string
val nan : string
