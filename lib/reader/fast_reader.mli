(** Fast decimal-to-binary64 conversion (Clinger [1], Lemire).

    Clinger's reading paper — the input-side companion of Burger & Dybvig
    — observes that most conversions don't need bignums.  [read] makes
    three steps over the input string:

    + an allocation-free scan takes the sign, the first 19 significant
      digits [w], the decimal exponent [q] and whether a nonzero digit
      past the 19th was dropped;
    + one of two tiers answers from [w] and [q]:
      - {b exact}: no digit dropped, [w <= 2^53] and [|q| <= 22] — one
        hardware multiply or divide is correctly rounded by IEEE
        semantics;
      - {b extended}: Lemire's 128-bit product of [w] with the entry for
        [10^q] in {!Fastpath.Pow10_table}, which Mushtak & Lemire prove
        is always enough for binary64 and [w < 2^64] (subnormals,
        overflow and exact ties included);
    + {b fallback}: when dropped digits leave [w] and [w + 1] on two
      sides of a midpoint between doubles, one exact comparison of the
      decimal against that midpoint decides (Clinger's Algorithm R,
      started from the product's answer).  It runs in place, in the
      domain's two {!Bignum.Scratch} workspaces.  A binary64 midpoint
      has at most 768 significant digits, so the comparison loads the
      first 768 and folds every later digit into one sticky bit, which
      can only break an exact tie upward.

    Inputs the scanner does not take — [_] separators, [inf]/[nan],
    syntax errors, inputs over the {!Robust.Budget} length cap or past a
    deadline — go to {!Exact.parse}, the one source of structured
    errors; a parsed number with separators converts through
    {!Exact.read_decimal} (counted as {b fallback}).

    Results are {e always} correctly rounded to nearest-even.  A read of
    up to 19 digits allocates only its [Ok] result.  A longer read that
    reaches the comparison allocates under 32 minor words, whatever its
    length, once the domain's workspaces exist. *)

val read : string -> (float, Robust.Error.t) result
(** Parse and convert to binary64, round-to-nearest-even.  Never
    raises; shares the exact reader's structured errors and fast-reject
    gate. *)

val tiers : string -> float
(** The scan and its two bignum-free tiers alone, the same scanner
    {!read} runs: the binary64 {!read} gives for [s], or [nan] where
    {!read} needs a bignum or {!Exact.parse} (the comparison past 19
    digits, [_] separators, [inf]/[nan], errors, inputs over the length
    budget or past a deadline).  No input it answers reads as a NaN.
    Counts its exact and extended answers as {!read} does; a [nan]
    counts in no tier.  Allocates only the boxed result, and touches no
    bignum state, so a systhread may call it. *)

type stats = { exact : int; extended : int; fallback : int }

val stats : unit -> stats
(** Monotonic tier counters, for the ablation bench.  Zeros, [inf],
    [nan] and errors count in no tier.  They count attempts: a value
    {!tiers} answers and {!read} then reads again counts twice. *)
