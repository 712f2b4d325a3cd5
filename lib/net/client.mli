(** A resilient client for the bdprintd wire protocol.

    The CLI, the benchmark harness, and the tests all talk to bdprintd
    through this module so that every caller gets the same survival
    behaviour:

    {ul
    {- {e Reconnecting connection pool}: idle connections are pooled per
       endpoint and reused; a broken connection is dropped and replaced
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
    {- {e Failover and endpoint ejection}: requests rotate round-robin
       across the configured endpoints; an endpoint accumulating
       [eject_threshold] consecutive transport failures (or answering
       [SHED draining]) is ejected for [eject_cooldown_ms] and only
       readmitted after a successful [HEALTHZ] probe answers [READY].}
    {- {e Honored shed hints}: [SHED queue-full] / [SHED overload]
       replies carry the server's [retry-after-ms]; the client sleeps
       that long (capped by [max_shed_wait_ms] and the remaining
       deadline) instead of its default backoff.}
    {- {e Hedged requests} (optional): conversions are pure, so when
       [hedge_ms] is set and a second healthy endpoint exists, a request
       that has not answered within the hedge delay is duplicated to the
       other endpoint and the first conversational answer wins.}
    {- {e Local fallback tier}: when every remote tier is exhausted and
       a [local] conversion function was supplied, the request is
       answered in-process — the caller still gets a correct conversion
       when the whole fleet is down.}}

    Remote [ERR syntax] / [ERR range] / [ERR budget] replies are
    {e determinative}: conversions are pure, so an input the server
    rejects with a typed error is invalid everywhere and is returned
    immediately as the corresponding {!Robust.Error.t} without retrying.

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
  hedge_ms : int option;
      (** duplicate an unanswered request to a second endpoint after
          this many ms; [None] (default) disables hedging *)
  eject_threshold : int;
      (** consecutive transport failures before ejection (3) *)
  eject_cooldown_ms : int;
      (** ejection length before a readmission probe (1000) *)
  pool_size : int;  (** idle connections kept per endpoint (2) *)
}

val default_config : config

type tier =
  | Remote of Addr.t  (** answered by this endpoint *)
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
  hedges : int;  (** hedged secondaries launched *)
  hedge_wins : int;  (** hedged secondaries that answered first *)
  ejections : int;
  readmissions : int;
  reconnects : int;  (** fresh sockets opened (pool misses) *)
}

type t

val create :
  ?config:config ->
  ?local:(string -> (string, Robust.Error.t) result) ->
  Addr.t list ->
  t
(** [create addrs] builds a client over the given endpoints (failover
    order = list order, then round-robin).  [local] is the in-process
    conversion used as the final fallback tier.  No sockets are opened
    until the first request.
    @raise Invalid_argument if [addrs] is empty. *)

val convert : t -> ?deadline_ms:int -> string -> (outcome, Robust.Error.t) result
(** One conversion through the resilience ladder: healthy remote
    endpoints (with retries, failover, shed waits and optional hedging),
    then the local fallback, then the last typed error.  [Error] is
    always one of the four {!Robust.Error.t} classes — transport
    failures surface as [Internal] only after every tier is exhausted;
    an exceeded [deadline_ms] surfaces as the standard [Budget]
    deadline error. *)

val close : t -> unit
(** Closes every pooled connection; subsequent {!convert} calls fail
    with a typed [Internal] error.  Idempotent. *)

val stats : t -> stats

val endpoint_states : t -> (string * bool) list
(** [(address, usable)] per endpoint, in failover order — [usable]
    means not currently ejected.  For status displays and tests. *)
