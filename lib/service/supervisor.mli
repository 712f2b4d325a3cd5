(** A supervised parallel conversion service: a worker pool on OCaml 5
    domains that turns the one-shot conversion pipeline into a
    long-running batch service with bounded memory and total, structured
    failure behaviour.

    {ul
    {- {e Bounded submission with backpressure}: at most
       [queue_capacity] requests are in flight (submitted but not yet
       answered); {!submit} blocks beyond that.}
    {- {e Per-request deadlines}: enforced cooperatively through the
       {!Robust.Budget} check sites inside the digit loops; an expired
       request fails with a structured [Budget] timeout error
       ([what = Budget.deadline_what]) within one unit of work.}
    {- {e Retries}: [Internal]-class failures (how transient injected
       faults surface) are retried with capped exponential backoff;
       [Syntax]/[Range]/[Budget] failures fail fast.}
    {- {e Direct delivery}: each reply reaches [emit] as soon as it is
       produced, on the domain that produced it, whatever the state of
       the requests submitted before it.  A wedged or slow request holds
       up its own caller only.}
    {- {e Crash detection and respawn}: an exception that escapes a
       worker loop (the [service.worker-kill] fault point injects one)
       kills that domain for real.  A conversion is pure, so the dying
       worker first puts its request back on the queue, and then spawns
       its own replacement; the replacement or any other worker runs it
       again.  The request stays in flight throughout, and its deadline
       still runs from submission.  A request whose workers die
       [max_retries + 1] times is answered [Failed (Internal _)].  So a
       crash costs one more run, never a lost request, a second kind of
       answer or a shrinking pool.}
    {- {e Wedge detection (watchdog)}: with a {!watchdog_policy}, a
       monitor domain heartbeats every dequeued request.  A request held
       past its deadline plus [grace_ms] (or past [stuck_ms] without a
       deadline) on a live-but-wedged worker — the
       [service.worker-wedge] fault point injects one — is {e cancelled}:
       answered immediately with a structured timeout, its worker
       abandoned (OCaml domains cannot be killed; the worker's late
       reply is dropped and the worker exits when it finally wakes) and
       a replacement spawned, so a wedge costs one timed-out reply and
       one domain spawn, never a stuck connection or a shrinking pool.}
    {- {e Graceful shutdown}: {!shutdown} drains the queue — every
       submitted request is emitted exactly once — then joins all
       domains and reports final statistics.}}

    One mutex guards all of it.  Each request is one slot from
    {!submit} until its reply is delivered: the job, its start time once
    a worker takes it, and the reply — which, when the watchdog put it
    there first, is the cancellation the wedged worker finds.  Waiting
    jobs sit in a queue, and each worker's current job in a table of
    [jobs] heartbeats that the watchdog scans, under the same mutex;
    workers sleep on one condition and a blocked {!submit} on another. *)

type retry_policy = {
  max_retries : int;  (** additional attempts after the first *)
  backoff_ms : float;  (** pause before the first retry *)
  backoff_multiplier : float;
  backoff_cap_ms : float;
}

val default_retry : retry_policy
(** 4 retries, 1 ms initial backoff, doubling, capped at 50 ms. *)

type watchdog_policy = {
  poll_ms : int;  (** scan interval of the monitor domain *)
  grace_ms : int;
      (** slack past a request's deadline before its worker is declared
          wedged — covers the cooperative check-site latency of a
          healthy worker *)
  stuck_ms : int;
      (** wedge threshold for requests carrying no deadline *)
}

val default_watchdog : watchdog_policy
(** 20 ms poll, 100 ms grace, 10 s stuck threshold. *)

type outcome = Done of string | Failed of Robust.Error.t

type reply = {
  lineno : int;  (** caller-supplied request label (input line number) *)
  input : string;
  outcome : outcome;
  attempts : int;
      (** convert attempts made, plus one per run a worker died in; 0
          when the request never reached [convert] *)
}

type stats = {
  submitted : int;
  completed : int;  (** requests answered *)
  succeeded : int;
  retries : int;
      (** total retry attempts across all requests, each re-run after a
          crash included *)
  syntax_failures : int;
  range_failures : int;
  budget_failures : int;  (** includes deadline timeouts *)
  internal_failures : int;  (** post-retry, i.e. retries did not mask *)
  crashes : int;
      (** worker-domain deaths detected (exceptions escaping a worker
          loop, e.g. an injected [service.worker-kill] fault); each
          crash's in-flight request runs again rather than being lost *)
  respawns : int;
      (** replacement worker domains spawned after crashes or wedges *)
  wedges : int;
      (** live-but-wedged workers the watchdog cancelled: the stuck
          request was answered with a structured timeout and the worker
          abandoned and replaced *)
  max_in_flight : int;  (** high-water mark of submitted-not-yet-answered *)
  capacity : int;
  jobs : int;
}

type t

val max_jobs : int
(** The most worker domains {!start} takes (125): OCaml 5.1 runs at most
    128 domains at once, and the pool also needs the caller's domain,
    the watchdog and a replacement worker that overlaps the one it
    replaces. *)

val start :
  ?jobs:int ->
  ?queue_capacity:int ->
  ?retry:retry_policy ->
  ?watchdog:watchdog_policy ->
  emit:(reply -> unit) ->
  (string -> (string, Robust.Error.t) result) ->
  t
(** [start ~emit convert] spawns [jobs] worker domains (default 2);
    [watchdog] (default: none) adds the wedge-detection monitor domain.
    [convert] runs on worker domains — it must be safe to call
    concurrently — and is re-guarded with {!Robust.Error.catch}, so
    even an exception-throwing convert cannot kill a worker.  [emit]
    gets every reply exactly once, in no particular order, on the
    worker or watchdog domain that delivered it, outside the service's
    lock.  Calls may run on several domains at once, so [emit] must be
    safe to call concurrently; it must not raise (an exception is
    dropped).  The ambient {!Robust.Budget} of the starting domain is
    captured and installed in every worker.  [retry.max_retries] bounds
    both the retries of an [Internal] failure and the re-runs of a
    request whose worker died.
    @raise Invalid_argument unless [1 <= jobs <= max_jobs],
    [queue_capacity >= 1] and [retry.max_retries >= 0]; it spawns no
    domain then. *)

val submit : t -> ?deadline_ms:int -> ?tid:int -> lineno:int -> string -> unit
(** Enqueues a request.  Blocks while [queue_capacity] requests are in
    flight (backpressure), counted from submission until their reply is
    delivered.  [lineno] is the caller's label, handed back in the
    request's {!reply}.  [deadline_ms] grants a wall-clock budget
    measured from submission — queue wait counts, so a 0 ms deadline
    fails with a structured timeout without converting.  [tid]
    (default 0 = untraced) is the request's {!Telemetry.Tracing} id:
    the queue-wait span opens at submission, and the worker that
    dequeues the job adopts the id so its pipeline spans land on the
    request's trace.  With the flight recorder on, the request's
    ["admit"] event is recorded here, under the same [req] as its
    ["service-start"], ["service-end"], ["crash"] and ["wedge"]
    events.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> stats
(** Closes the queue, joins the watchdog and then the workers, which
    drain and emit every submitted request before they exit,
    and returns the final statistics.  Idempotent. *)

val stats : t -> stats
(** A consistent snapshot; callable at any time. *)
