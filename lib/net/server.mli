(** bdprintd's serving engine: a crash-tolerant networked conversion
    daemon over the supervised worker pool.

    One listener (Unix-domain or TCP socket) accepts connections on a
    dedicated thread; each connection is served by its own thread
    speaking the {!Wire} protocol.  A conversion takes one of two
    routes, chosen per request after a memo miss:

    {ul
    {- {e inline}: the connection thread runs the bignum-free [inline]
       function itself (for bdprintd, {!Conversion.inline}: the
       reader's fast tiers, then the table tier) and writes its answer.
       No worker, no wake-up, no memo fill.}
    {- {e pool}: whatever [inline] declines, and every request whose
       deadline has already expired, goes to the {!Service.Supervisor}
       worker domains, which run [convert] under their watchdog and
       retry policy — so a slow or stalled conversion can never block
       another client or the connection threads.}}

    A connection has at most one conversion in flight: its thread waits
    for each reply before it reads on, so pipelined [CONV] frames get
    their replies in order, and each connection owns one waiter, made
    at accept and kept with its socket under the daemon's one mutex.  A pool request goes to the
    supervisor labelled with the connection's id, and the supervisor
    domain that emits the reply posts it to that waiter.

    {b Survival properties} (the daemon's headline feature):

    {ul
    {- {e Bounded admission with explicit shedding}: at most
       [admission_capacity] pool requests are in flight across all
       connections.  A pool request beyond the bound is answered
       [SHED queue-full] {e immediately} — the daemon never queues
       unboundedly and never silently drops.  Inline answers never
       queue, so they are never shed this way.  A shed carries its
       reason only; the client retries it on its own backoff.}
    {- {e Wedge detection}: the supervisor's watchdog domain (see
       {!Service.Supervisor.watchdog_policy}; on by default here)
       answers any request stuck past its deadline on a live-but-wedged
       worker with a structured timeout and replaces the worker, so one
       pathological request cannot capture a worker domain forever.}
    {- {e Per-client deadlines and budgets}: each connection can set a
       wall-clock deadline ([DEADLINE <ms>]) enforced through
       {!Robust.Budget}'s cooperative check sites.  A pool request still
       queued when its deadline passes is answered [ERR budget] at
       dequeue without being converted; input frames are
       bounded by the ambient budget's [max_input_length] and oversized
       frames are rejected as [ERR proto frame-too-long] without
       desynchronising the stream.}
    {- {e Crash tolerance}: worker-domain crashes (the
       [service.worker-kill] fault) are detected by the supervisor,
       which runs the request again and respawns the worker, so the
       reply is the same bytes as without the crash — the daemon itself
       never dies.}
    {- {e Hot-value cache}: a bounded FIFO memo table ({!Memo}) in
       front of both routes; every answer the pool computed is cached
       and nothing else, so hits are always correct and an inline
       answer, which costs about what a lookup does, takes no entry.}
    {- {e Graceful drain}: {!drain} (wired to SIGTERM/SIGINT by
       [bdprintd]) stops accepting, answers new conversion requests with
       [SHED draining], finishes every admitted request on either route
       (an inline answer holds an admission slot until it is written),
       shuts the supervisor down, and wakes {!wait} — losing no
       accepted request.}} *)

type config = {
  jobs : int;  (** supervisor worker domains *)
  admission_capacity : int;  (** max in-flight conversion requests *)
  cache_capacity : int;  (** memo entries; 0 disables the cache *)
  default_deadline_ms : int option;
      (** deadline applied until a connection overrides it *)
  watchdog : Service.Supervisor.watchdog_policy option;
      (** wedge-detection monitor; [None] disables it *)
}

val default_config : config
(** 2 jobs, 256 admissions, a 4096-entry cache, no default deadline,
    the default watchdog.  The supervisor runs its default retry
    policy. *)

type stats = {
  connections : int;  (** accepted since start *)
  active_connections : int;
  requests : int;  (** conversion requests ([CONV] frames) *)
  replies_ok : int;  (** includes cache hits and inline answers *)
  cache_hits : int;
  inline : int;  (** answered on the connection thread *)
  replies_failed : int;
  shed_queue_full : int;
  shed_draining : int;
  proto_errors : int;  (** malformed frames answered [ERR proto ...] *)
  cache : Memo.stats;
  supervisor : Service.Supervisor.stats;
}

type t

val start :
  ?config:config ->
  inline:(string -> string option) ->
  convert:(string -> (string, Robust.Error.t) result) ->
  Addr.t ->
  (t, Robust.Error.t) result
(** Binds the listener (TCP port 0 binds an ephemeral port), spawns the
    supervisor pool and the accept thread, and returns immediately.
    A config with [jobs] outside 1..{!Service.Supervisor.max_jobs} or
    an [admission_capacity] below 1 is [Error (Range _)], returned
    before anything is bound.  Binding failures (address in use, bad
    path, a host that does not resolve) surface as
    [Error (Internal _)].  bdprintd passes
    {!Conversion.inline} and {!Conversion.convert}.

    [inline] runs on connection threads — systhreads of the domain that
    called [start] — after a memo miss, unless the request's deadline
    has already expired.  [Some] text is the reply; [None] sends the
    request to the pool.  It must give [convert]'s bytes, must not
    raise, and may touch only state that survives a thread switch
    (atomics, read-only tables, the {!Fastpath} pool with its busy
    guard): no bignum scratch.  [fun _ -> None] sends every request to
    the pool.  [convert] runs on worker domains and must be safe to
    call concurrently.  SIGPIPE is set to ignore: client disconnects
    surface as [EPIPE] writes handled per connection. *)

val address : t -> string
(** The bound address, e.g. ["127.0.0.1:43117"] or a socket path — for
    TCP with port 0, the actual ephemeral port. *)

val port : t -> int option
(** The bound TCP port, if listening on TCP. *)

val drain : t -> unit
(** Requests graceful shutdown; returns immediately (async-signal-safe:
    only sets a flag the accept loop polls).  Idempotent. *)

val wait : t -> stats
(** Blocks until a requested drain completes — listener closed, every
    admitted request answered and written, supervisor shut down, idle
    connections shut down — then returns the final statistics. *)

val stats : t -> stats
(** A consistent snapshot, callable at any time. *)

val stats_json : t -> string
(** The [STATS] payload: a flat JSON object (stable keys, documented in
    docs/SERVICE.md).  Its [shed_overload] and [cache_skips] keys are
    always 0: the daemon sheds no request for its deadline and the memo
    skips no conversion, and the keys stay for perfbench's traced
    daemon run, which reads them. *)
