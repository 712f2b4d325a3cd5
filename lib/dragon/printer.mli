(** Convenience API over OCaml floats (IEEE binary64).

    [print] is the paper's free-format algorithm end to end: the result is
    the shortest decimal (or other-base) string that reads back as the
    same double under the given reader rounding mode.  [print_fixed] is
    the fixed-format algorithm with [#] marks.  Zeros, infinities and NaNs
    render as ["0"], ["-0"], ["inf"], ["-inf"], ["nan"]. *)

val print :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  float ->
  string
(** Free format.  Defaults: base 10, reader rounds to nearest even, fast
    estimator, output ties round up, automatic notation. *)

val print_fixed :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  Fixed_format.request ->
  float ->
  string
(** Fixed format to an absolute position or a number of significant
    digits. *)

val shortest : float -> string
(** [print] with all defaults — the drop-in [float -> string]. *)

val print_table :
  mode:Fp.Rounding.mode -> notation:Render.notation -> float -> string
(** The table tier's base-10 free format of a finite non-zero double, as
    {!print} runs it first on the bits: its text, or [""] when it
    declines — a zero, infinity or NaN, a closed tier (see
    {!Free_format.tier_open}: fault points armed, fast path off, the
    pure reference forced, a mode not to nearest), an uncertain verdict
    or the calling domain's expired deadline (which the exact tier
    then raises).  Never raises, and needs no bignum: it runs the
    {!Fastpath} kernel on this domain's pool, whose busy guard turns a
    re-entry from another systhread into an uncertain verdict. *)

val print_exact : ?base:int -> ?notation:Render.notation -> float -> string
(** The {e complete} exact decimal (or other even-base) expansion of the
    double — every binary float has a finite one.  [0.1] prints as its
    true 55-digit value; the smallest denormal has 751 digits.  Useful
    for seeing exactly which real number a float is. *)

val print_hex : float -> string
(** C17 hexadecimal-significand notation ([0x1.999999999999ap-4] for
    [0.1]), the always-exact power-of-two special case of base
    conversion; matches the host's [%h] including denormals
    ([0x0.0000000000001p-1022]). *)

val print_value :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  Fp.Format_spec.t ->
  Fp.Value.t ->
  (string, Robust.Error.t) result
(** Free format for a decomposed value in any format.  Never raises:
    misuse (base outside 2..36), budget violations and injected faults
    all come back as [Error]. *)

val print_value_exn :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?strategy:Scaling.strategy ->
  ?tie:Generate.tie ->
  ?notation:Render.notation ->
  Fp.Format_spec.t ->
  Fp.Value.t ->
  string
(** {!print_value} for call sites with statically valid arguments (the
    float convenience API and the examples).
    @raise Robust.Error.E on what {!print_value} reports as [Error]. *)

(** {2 Fast-path dispatch}

    Free- and fixed-format conversions try the table-driven Q4.112
    fast path ({!Fastpath}) before the exact kernels; an uncertain
    verdict falls back with byte-identical output either way. *)

val set_fastpath_enabled : bool -> unit
(** Steer the dispatch (benchmarks time the exact kernels by turning it
    off; [BDPRINT_NO_FASTPATH=1] does the same at startup). *)

val fastpath_enabled : unit -> bool

val fastpath_stats : unit -> int * int
(** [(hits, fallbacks)] of free-format conversions, from the
    [bdprint_fastpath_{hit,fallback}_total{format="free"}] counters;
    recorded only while telemetry is enabled.  They count attempts: a
    value {!print_table} declines and {!print_value} then tries again
    counts two fallbacks. *)

val fixed_fastpath_stats : unit -> int * int
(** The same for fixed format ([format="fixed"]), which runs the table
    tier's position rule before its exact tier. *)
