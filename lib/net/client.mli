(** A resilient client for one bdprintd daemon, over its wire protocol.

    [bdprint --connect] and the tests talk to bdprintd through this
    module.  (The benchmark harnesses open their own sockets.)  Every
    caller gets the same survival behaviour:

    {ul
    {- {e Reconnecting connection pool}: idle connections are pooled
       and reused; a broken connection is dropped and replaced
       transparently on the next attempt.}
    {- {e Per-request deadlines}: an optional [deadline_ms] becomes a
       {!Robust.Budget.deadline} governing the whole request — connect
       and read timeouts, retry/backoff sleeps, and the [DEADLINE]
       installed on the server side are all derived from the remaining
       budget.}
    {- {e Retries with jittered exponential backoff}: transport failures
       and retryable remote errors ([ERR internal] / [ERR proto]) are
       retried up to [max_attempts] times with capped exponential
       backoff and ±50% jitter (seeded from {!Robust.Faults.seed}, so
       chaos runs replay).}
    {- {e Honored shed hints}: [SHED queue-full] / [SHED overload]
       replies carry the server's [retry-after-ms]; the client sleeps
       that long (capped by [max_shed_wait_ms] and the remaining
       deadline) instead of its default backoff.}
    {- {e A down daemon is skipped}: [eject_threshold] consecutive
       transport failures, or a [SHED draining] reply, mark the daemon
       down for [eject_cooldown_ms].  Meanwhile every request goes
       straight to the local tier, so a stream at a dead address pays
       for its failed connects once, not per line.  After the cooldown
       the next request tries the daemon again: an answer clears the
       down state, a transport failure renews it.}
    {- {e Local fallback tier}: when the daemon cannot answer and a
       [local] conversion function was supplied, the request is
       answered in-process.  Conversions are pure, so the local tier
       gives the daemon's bytes.}}

    Remote [ERR syntax] / [ERR range] / [ERR budget] replies are
    {e determinative}: conversions are pure, so an input the server
    rejects with a typed error is invalid everywhere and is returned
    immediately as the corresponding {!Robust.Error.t} without retrying.
    A budget reply's detail is read back into the error's fields, so it
    renders as the same error raised in-process would.

    An input that a [CONV] line cannot carry unchanged
    ({!Wire.conv_reads_back} is false: blanks at either end, a line
    break, a leading [TID=] token, the empty string) never reaches the
    daemon, which would convert a different string.  It goes straight
    to the local tier with [attempts = 0]; with no local tier it is a
    typed [Syntax] error, as the library's strict grammar rejects every
    such input.  Nor does an input longer than the caller's budget
    admits ([max_input_length]), whose [CONV] line a daemon on the same
    budget would refuse or, past its frame cap, discard unread: the
    local tier answers it, and with no local tier it is the [Budget]
    error on its input length.

    Thread-safety: one [t] may be shared by any number of threads and
    domains; all shared state sits behind one mutex held only for
    pointer-sized bookkeeping (never across I/O). *)

type config = {
  connect_timeout_ms : int;  (** per-connect bound (default 1000) *)
  request_timeout_ms : int;
      (** read/write bound per attempt when no deadline is set
          (default 5000); a deadline tightens it *)
  max_attempts : int;  (** total remote attempts per request (default 4) *)
  backoff_ms : float;  (** base backoff before the second attempt (5) *)
  backoff_multiplier : float;  (** exponential growth factor (2) *)
  backoff_cap_ms : float;  (** backoff ceiling (200) *)
  max_shed_wait_ms : int;
      (** cap on honoring a server [retry-after-ms] hint (2000) *)
  eject_threshold : int;
      (** consecutive transport failures that mark the daemon down (3) *)
  eject_cooldown_ms : int;
      (** how long the daemon stays down before a request tries it
          again (1000) *)
  pool_size : int;  (** idle connections kept (2) *)
}

val default_config : config

type tier =
  | Remote of Addr.t  (** answered by the daemon at this address *)
  | Local  (** answered by the in-process fallback *)

type outcome = {
  output : string;
  tier : tier;
  attempts : int;  (** remote attempts consumed (0 = straight to local) *)
}

type stats = {
  requests : int;
  remote_ok : int;
  local_fallbacks : int;
  typed_errors : int;
  retries : int;  (** attempts beyond each request's first *)
  sheds_honored : int;  (** SHED replies waited out per the server hint *)
  ejections : int;  (** times the daemon was marked down *)
  reconnects : int;  (** fresh sockets opened (pool misses) *)
}

type t

val create :
  ?config:config ->
  ?local:(string -> (string, Robust.Error.t) result) ->
  Addr.t ->
  t
(** [create addr] builds a client for the daemon at [addr].  [local] is
    the in-process conversion used as the fallback tier.  No sockets
    are opened until the first request. *)

val convert : t -> ?deadline_ms:int -> string -> (outcome, Robust.Error.t) result
(** One conversion through the resilience ladder: the daemon (with
    retries and shed waits) unless it is down, then the local fallback,
    then the last typed error.  [Error] is always one of the four
    {!Robust.Error.t} classes — transport failures surface as
    [Internal] only after every tier is exhausted; an exceeded
    [deadline_ms] surfaces as the standard [Budget] deadline error. *)

val close : t -> unit
(** Closes every pooled connection; subsequent {!convert} calls fail
    with a typed [Internal] error.  Idempotent. *)

val stats : t -> stats
