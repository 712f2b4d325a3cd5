(** Span timing and request-scoped tracing, with Chrome trace-event
    export.

    Every span site opens with {!start} (against the domain's current
    request) or {!start_for} (against an explicit trace id) and closes
    with {!finish}, which feeds two consumers:

    - the [bdprint_stage_duration_ns] histogram family (one series per
      stage label, log-linear nanosecond buckets), while metrics are
      on.  Untraced spans are sampled one in 32 per domain, so the hot
      loop pays clock reads only on sampled conversions; with
      telemetry off a {!start} costs two atomic loads and a branch.
    - the trace ring, when the span has a trace id.  One request in N
      ({!set_sample_every}, default 64) is assigned a process-unique
      trace id; every stage it crosses records a completed span into a
      fixed-size global ring (old spans are overwritten, so memory
      stays bounded).  A traced span always times, and its duration
      is offered as the histogram's trace-id exemplar.

    {!to_chrome_json} renders the ring in Chrome trace-event JSON,
    loadable in chrome://tracing or Perfetto: each trace id is its own
    thread track, so a request's spans nest by time containment.

    Trace id [0] means "not traced" throughout; every entry point is a
    cheap no-op for it, so call sites need no guards of their own.

    The domain-local current id set by {!begin_request}/{!adopt} is
    only meaningful where a single request occupies the domain at a
    time (CLI stream drivers, supervisor worker domains).  Systhreads
    share their domain's slot, so multiplexing code — daemon connection
    threads, a client shared by several threads — must carry the id
    explicitly via {!start_for} and [finish ~tid]. *)

type stage =
  | Parse
  | Boundaries
  | Scale
  | Generate
  | Render
  | Client_attempt
  | Client_backoff
  | Wire_write
  | Queue_wait
  | Worker_service
  | Memo_lookup
  | Request
  | Fastpath

val all : stage list
val stage_name : stage -> string

(** {2 Enable switch and sampling} *)

val enabled : unit -> bool
(** One atomic load; disabled means {!sample} and {!begin_request}
    return 0, so {!start} times only the histograms' samples. *)

val set_enabled : bool -> unit

val set_sample_every : int -> unit
(** Trace every Nth request per domain (default 64); [1] traces all.
    @raise Invalid_argument on [n < 1]. *)

val sample_every_from_env : string -> unit
(** [sample_every_from_env var] applies {!set_sample_every} to the
    value of the environment variable [var] ([BDPRINT_TRACE_SAMPLE],
    [BDPRINTD_TRACE_SAMPLE]) when it is an integer of at least 1, and
    otherwise leaves the interval as it is. *)

(** {2 Request lifecycle} *)

val begin_request : unit -> int
(** Sampling decision for a new request on this domain: returns a
    fresh trace id (or 0) and installs it as the domain-local current
    id — including the 0, so an untraced request never inherits its
    predecessor's id.  Pair with {!end_request}. *)

val end_request : int -> unit
(** Records the [Request] root span for a traced request and clears
    the domain-local current id; [0] just clears. *)

val sample : unit -> int
(** The sampling decision alone — a fresh trace id for one request in
    N, or 0 — without touching the domain-local current id.  For
    connection threads that multiplex requests. *)

val fresh_tid : unit -> int
(** An unconditional fresh trace id, bypassing the sampler — for
    adopting requests that were already sampled elsewhere (tests,
    explicit trace requests). *)

val current : unit -> int
(** The domain-local current trace id; 0 when untraced. *)

val adopt : int -> unit
(** Installs [tid] as the domain-local current id (0 clears) — worker
    domains adopt the id carried by a dequeued job. *)

(** {2 Spans} *)

val start : unit -> int
(** Opens a span against the current id: a clock token, or [0] when
    the span is neither traced nor sampled for the histograms. *)

val start_for : int -> int
(** Opens a span against an explicit id: a clock token, or [0] for
    id [0].  Never sampled for the histograms on its own. *)

val finish : ?note:string -> ?tid:int -> stage -> int -> unit
(** Closes a span opened by {!start}/{!start_for}; a [0] token is a
    no-op.  Observes the stage's histogram while metrics are on, and
    records the span in the ring when its id is non-zero.  [tid]
    defaults to the current id (0 while tracing is off); [note] is
    attached to the trace event (ignored by the histograms). *)

(** {2 Export} *)

val events_recorded : unit -> int
(** Spans currently held in the ring (capped at the ring size). *)

val dropped : unit -> int
(** Spans overwritten since the last {!clear} — nonzero means
    {!to_chrome_json} is a suffix of the run, not the whole run. *)

val to_chrome_json : ?pid:int -> unit -> string
(** The ring as Chrome trace-event JSON ("X" complete events, one
    thread track per trace id), sorted by start time.  [pid] defaults
    to the process id; tests pin it for golden output. *)

val write_chrome_json : string -> unit
(** Writes {!to_chrome_json} to a file — the [--trace FILE] export of
    bdprint and bdprintd.  A file that cannot be written is skipped:
    a trace must never turn a finished run into a failed one. *)

val clear : unit -> unit
(** Empties the ring and resets the drop count (tests, TRACE verb). *)

val inject :
  tid:int -> stage:stage -> start_ns:int -> dur_ns:int -> ?dom:int ->
  ?note:string -> unit -> unit
(** Test hook: append a fabricated span, bypassing clock and sampler,
    so golden tests can pin {!to_chrome_json} output exactly. *)
