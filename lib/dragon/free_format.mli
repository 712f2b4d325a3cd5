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

(** {2 The two tiers}

    {!convert} is the table tier ({!Fastpath}) with the exact tier
    behind it.  These pieces let {!Printer} and {!Fixed_format} go from
    the kernel's digits straight to text on a hit, and straight to the
    exact tier on a miss. *)

val tier_open : base:int -> mode:Fp.Rounding.mode -> Fp.Format_spec.t -> bool
(** The table tier's one gate for both formats, before the value is
    looked at: decimal output, a binary format, a to-nearest mode, the
    tier enabled ([BDPRINT_NO_FASTPATH] unset), not force-pure, no
    fault point armed. *)

val tier_mantissa : Fp.Value.finite -> int
(** The mantissa as a native int when it is below 2^53 (the kernels'
    range), else 0; allocates nothing. *)

val shortest_tier :
  Bytes.t ->
  mode:Fp.Rounding.mode ->
  Fp.Format_spec.t ->
  f:int ->
  e:int ->
  int
(** [shortest_tier buf ~mode fmt ~f ~e] runs
    {!Fastpath.convert_shortest} on v = f·2^e, [0 < f < 2^53], once
    {!tier_open} has passed: the packed verdict, with the ASCII digits
    in [buf] when it is non-negative.  Timed as the [fastpath] trace
    stage. *)

val fixed_tier :
  Bytes.t ->
  mode:Fp.Rounding.mode ->
  Fp.Format_spec.t ->
  f:int ->
  e:int ->
  relative:bool ->
  pos:int ->
  int
(** {!shortest_tier} for {!Fastpath.convert_fixed}'s position rule. *)

val exact :
  base:int ->
  mode:Fp.Rounding.mode ->
  strategy:Scaling.strategy ->
  tie:Generate.tie ->
  Fp.Format_spec.t ->
  Fp.Value.finite ->
  t
(** The exact tier alone: boundaries, scaling and digit generation,
    each timed as its trace stage. *)

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
