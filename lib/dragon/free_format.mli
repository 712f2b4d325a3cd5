(** Free-format conversion (paper, Sections 2-3): the shortest digit
    string, correctly rounded, that reads back as the original value under
    the reader's rounding mode. *)

type t = {
  digits : int array;  (** base-[base] digits, most significant first *)
  k : int;  (** the value printed is [0.d1 d2 ... dn × base^k] *)
}

val convert :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  t
(** Shortest correctly rounded digits of the magnitude of a non-zero
    finite value.  Defaults: decimal output, reader rounds to nearest
    even, the paper's fast estimator, ties between equally close outputs
    round up (as in the paper's Scheme code). *)

val table_tier :
  base:int ->
  mode:Fp.Rounding.mode ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  (f:int ->
  e:int ->
  mantissa_bits:int ->
  narrow:bool ->
  high_ok:bool ->
  est:int ->
  'a option) ->
  'a option
(** [table_tier ~base ~mode fmt v attempt] runs one of {!Fastpath}'s
    stopping rules ({!Fastpath.convert_shortest},
    {!Fastpath.convert_fixed}) on [v] when the conversion qualifies for
    the table tier, and is [None] otherwise or when the rule's verdict
    is uncertain — the caller then runs the exact kernels.  The one gate
    for both formats: decimal output, a binary format with a mantissa
    below 2^53, a to-nearest mode, the tier enabled
    ([BDPRINT_NO_FASTPATH] unset), not force-pure, no fault point
    armed.  The attempt is timed as the [fastpath] trace stage. *)

val digit_count :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  int
(** Length of the shortest output — the statistic behind the paper's
    "average of 15.2 digits" remark. *)

val to_ratio : base:int -> t -> Bignum.Ratio.t
(** Exact value denoted by a conversion result, for tests. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
