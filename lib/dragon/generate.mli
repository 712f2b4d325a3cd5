(** The digit-generation loop (paper, Figures 1 and 3).

    Digits come out most-significant first and never need a carry
    propagated back (Theorem 1): when the loop decides to round the last
    digit up, [d + 1] is guaranteed to stay below the base.

    The loop expects the {e pre-multiplied} convention of Figure 3: on
    entry [r], [m_plus] and [m_minus] have already absorbed one factor of
    the output base, so the first digit is [r / s] directly.  {!Scaling}
    establishes that convention (its [fixup] gets the off-by-one estimate
    case for free by skipping exactly this pre-multiplication).

    {2 Implementation paths}

    Three implementations produce byte-identical digits:

    - a {e word-sized fast path} that runs the whole loop in native
      ints when [r], [s], [m+], [m-] all fit machine words (common for
      small-exponent floats);
    - the {e scratch path}: in-place {!Bignum.Scratch} kernels over a
      per-domain pooled workspace, with the denominator normalized once
      per conversion for estimated-quotient short division — in steady
      state the loop allocates no minor words;
    - the {e pure path}: the original immutable {!Bignum.Nat} loop,
      kept as the differential reference and as the fallback for
      states that violate the scaling invariant.

    Telemetry counts fast- vs scratch-path conversions
    ([bdprint_generate_fastpath_total] /
    [bdprint_generate_scratchpath_total]) and the pool's limb
    high-water mark. *)

type tie = Closer_up | Closer_down | Closer_even
(** Strategy when the candidate outputs [d] and [d+1] are equidistant from
    the value; the paper's code rounds up. *)

val free : base:int -> tie:tie -> Boundaries.t -> int array
(** Run the loop to the shortest accepted output.  Termination condition
    (1) — the output would round up to [v] — keeps digit [d]; condition
    (2) — the incremented output would round down to [v] — yields [d+1];
    when both hold the closer one wins. *)

type stopped = {
  digits : int array;  (** accepted digits, last one already adjusted *)
  incremented : bool;  (** whether the last digit was rounded up *)
  rest : Bignum.Nat.t;  (** remainder [r_n] in Figure-1 units *)
  m_plus_n : Bignum.Nat.t;  (** [m⁺_n] in the same units *)
}

val free_stopped : base:int -> tie:tie -> Boundaries.t -> stopped
(** Like {!free} but exposing the final loop state, which fixed format
    needs to classify trailing positions as significant zeros or [#]
    marks. *)

(** {2 Path selection and accounting} *)

val set_force_pure : bool -> unit
(** Route every conversion through the pure-Nat reference path (the
    differential anchor).  Initialized from [BDPRINT_FORCE_PURE] at
    startup; tests and benchmarks flip it at runtime. *)

val force_pure : unit -> bool

val fastpath_count : unit -> int
(** Conversions served by the word-sized fast path since startup (the
    [bdprint_generate_fastpath_total] counter; recorded only while
    telemetry is enabled). *)

val scratchpath_count : unit -> int
(** Same for the in-place scratch path. *)
