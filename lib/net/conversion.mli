(** Every conversion of text: bdprint runs {!convert} for its
    arguments, its [--stdin] stream and [--connect]'s local tier, and
    bdprintd's worker pool runs it with the defaults.  {!Server.start}
    runs {!inline} on the connection thread and sends what it declines
    to the pool. *)

type request =
  | Shortest  (** free format *)
  | Position of Dragon.Fixed_format.request  (** fixed format *)
  | Hex  (** the value read as a C17 [%a] binary64 literal *)

val convert :
  ?base:int ->
  ?mode:Fp.Rounding.mode ->
  ?format:Fp.Format_spec.t ->
  ?strategy:Dragon.Scaling.strategy ->
  ?notation:Dragon.Render.notation ->
  ?request:request ->
  string ->
  (string, Robust.Error.t) result
(** Reads the text into [format] under [mode] and prints it as
    [request] asks.  Defaults: base 10, nearest-even, binary64, the
    fast estimator, automatic notation, [Shortest]; [Hex] takes no base
    or notation.  A binary64 stays a float from read to print:
    {!Reader.Fast.read} for a decimal under nearest-even, else the exact
    or hex reader's value composed to a float, printed by
    {!Dragon.Printer.print}, [print_fixed] or [print_hex].  A
    binary32 or binary16 value goes to [print_value_exn] or
    {!Dragon.Fixed_format.convert_exn}.  Read and print run in one
    {!Robust.Error.catch}, so it never raises.  The exact tier uses the
    calling domain's bignum scratch. *)

val inline : string -> string option
(** {!convert}'s bignum-free first step, with its defaults:
    {!Reader.Fast.tiers}, then {!Dragon.Printer.print_table}, or
    {!Dragon.Render.zero} on a zero.  [Some] text, the bytes {!convert}
    gives, when both answer; [None] when either declines, and for every
    input while the table tier is closed (see
    {!Dragon.Free_format.tier_open}).  It touches only atomics,
    read-only tables and the {!Fastpath} pool of the calling domain, so
    connection systhreads may run it at once; the pool's busy guard
    turns a re-entry into a decline.  Never raises. *)
