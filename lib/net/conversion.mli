(** bdprintd's conversion: bdprint's defaults, the shortest
    round-tripping decimal for a binary64 read to nearest-even, on two
    routes that give the same bytes.

    {!Server.start} takes both.  It runs {!inline} on the connection
    thread and sends what it declines to the worker pool, which runs
    {!convert}. *)

val convert : string -> (string, Robust.Error.t) result
(** The full conversion: a hex literal through {!Reader.Hex}, anything
    else through {!Reader.Fast.read}, then
    {!Dragon.Printer.print_value}.  Needs the bignum tiers' per-domain
    scratch, so it runs on a domain of its own: a Supervisor worker. *)

val inline : string -> string option
(** The bignum-free route: {!Reader.Fast.tiers}, then
    {!Dragon.Printer.print_table} on the value read, or
    {!Dragon.Render.zero} on a zero.  [Some] text, the bytes {!convert}
    gives, when both answer; [None] when either declines, and for every
    input while the table tier is closed (see
    {!Dragon.Free_format.tier_open}).  It touches only atomics,
    read-only tables and the {!Fastpath} pool of the calling domain, so
    connection systhreads may run it at once; the pool's busy guard
    turns a re-entry into a decline.  Never raises. *)
