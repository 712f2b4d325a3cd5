(** Fault injection: prove that a failure deep in the substrate surfaces
    at the public API as a structured [Internal] error rather than as an
    escaping exception or a wrong answer.

    Named points in the bignum kernel and the scaling layer call
    {!trip}; when the point is {e armed}, [trip] raises [Error.E
    (Internal _)], which the boundary guards ({!Error.catch}) turn into
    [Error].  Disarmed points cost one atomic load and branch.

    A point can be armed {e deterministically} (probability 1, the
    default: every guarded call fails), {e transiently} with a
    probability in [0,1] — each call draws from a domain-local generator
    and fails with that probability, which is what chaos tests use to
    inject a realistic transient failure rate under the service layer's
    retry machinery — or on a {e replayable schedule} ([At_call k]: the
    fault fires exactly on the k-th consult of the point), which pins a
    chaos failure to a reproducible request without any RNG state.
    Every injected failure increments a per-point atomic counter
    ({!trip_count}).

    Arm programmatically ({!arm}/{!arm_at}/{!with_fault}) from tests, or
    via the environment variable [BDPRINT_FAULTS], read once at startup
    — which lets end-to-end tests exercise the full binary.  The
    variable is a comma-separated list of entries, each [name]
    (deterministic), [name:probability] (transient, e.g.
    [BDPRINT_FAULTS=nat.divmod:0.01,scaling.scale]) or [name@req=k]
    (scheduled, e.g. [net.partial-write@req=500]).  Entries naming
    unknown points or carrying malformed probabilities/schedules are
    reported once on stderr at startup instead of being silently
    ignored.

    Probabilistic draws are seeded from [BDPRINT_FAULTS_SEED]; chaos
    harnesses print {!seed} so any failing run can be replayed exactly,
    and {!spec_string} renders the armed set back into the grammar for
    logs and artifacts. *)

val pipeline_points : string list
(** The raising points inside the conversion pipeline — ["nat.divmod"],
    ["nat.pow"], ["scaling.power"], ["scaling.scale"] — instrumented
    with {!trip}. *)

val net_points : string list
(** The network/service fault points — ["service.worker-kill"],
    ["service.worker-wedge"], ["net.slow-client"], ["net.partial-write"],
    ["net.malformed-frame"], ["net.daemon-restart"] — consumed through
    {!fires}: the call site enacts the fault (kills or wedges a worker
    domain, stalls or splits a write, corrupts a frame, restarts a
    daemon) instead of raising a structured error. *)

val points : string list
(** Every instrumented point: {!pipeline_points} followed by
    {!net_points}. *)

(** How an armed point decides to fire. *)
type schedule =
  | Probability of float
      (** each consult fires independently with this probability (from
          the domain-local seeded generator); [1.0] is deterministic *)
  | At_call of int
      (** fires exactly on the k-th consult of the point (counted
          atomically across all domains since process start or the last
          {!reset_call_counts}) — fully replayable *)

val arm : ?probability:float -> string -> unit
(** Arms a point.  [probability] defaults to [1.0] (deterministic);
    values below 1 make the point transient: each guarded call trips
    independently with that probability.  Re-arming replaces the
    point's previous schedule.  Arming a name not in {!points} arms
    nothing and warns once per distinct name (see {!unknown_points}). *)

val arm_at : call:int -> string -> unit
(** Arms a point on the [At_call] schedule: it fires exactly when its
    consult counter reaches [call] (1-based).  [call < 1] is rejected
    with the same once-per-name warning as an unknown point. *)

val disarm : string -> unit
val disarm_all : unit -> unit

val armed : string -> bool
(** True if the point is armed with any schedule. *)

val any_armed : unit -> bool
(** True if {e any} point is armed — a single atomic load, cheap enough
    to consult on every conversion.  Fast paths that cannot reproduce
    the reference pipeline's trip sites byte-for-byte use this to stand
    aside while fault injection is active, so differential chaos runs
    always exercise the instrumented kernels. *)

val probability : string -> float option
(** The armed probability of a point, or [None] if disarmed or armed
    with an [At_call] schedule. *)

val schedule_of : string -> schedule option
(** The full armed schedule of a point, or [None] if disarmed. *)

val spec_string : unit -> string
(** The armed set rendered in the [BDPRINT_FAULTS] grammar (e.g.
    ["nat.divmod:0.01,net.partial-write@req=500"]), so a chaos run can
    log — or upload as an artifact — the exact schedule to replay. *)

val trip : string -> unit
(** Called from the instrumented sites.
    @raise Error.E with an [Internal] payload when the point is armed
    (and the per-call draw or schedule fires) {e and} execution is
    inside an {!Error.catch} region (so startup computations and
    deliberately exception-raising [_exn] entry points are not
    disrupted). *)

val fires : string -> bool
(** Probe form of {!trip} for network/service fault points: reports
    whether the (armed, schedule-drawn) fault fires on this call —
    incrementing the point's trip counter when it does — and lets the
    call site enact the failure itself rather than raising.  Unlike
    {!trip} it does not require a guarded region: the sites that consult
    it (socket writers, frame encoders, the worker-domain kill switch)
    own their failure handling. *)

val with_fault : ?probability:float -> string -> (unit -> 'a) -> 'a
(** Runs the thunk with the point armed, disarming it afterwards (also
    on exception). *)

(** {2 Trip counters} *)

val trip_count : string -> int
(** Number of injected failures at the point since the last reset
    (summed across all domains). *)

val trip_counts : unit -> (string * int) list
(** Every instrumented point with its trip count, in {!points} order.
    The same counts are exported to the telemetry registry as
    [bdprint_fault_trips_total{point=...}], so chaos runs can assert —
    from a [--metrics] snapshot — that injection actually fired. *)

val total_trips : unit -> int
val reset_trip_counts : unit -> unit

val call_count : string -> int
(** Number of times the point has been consulted (armed with any
    schedule; disarmed consults are not counted).  The counter that
    [At_call] schedules key on. *)

val reset_call_counts : unit -> unit
(** Resets every consult counter, re-anchoring [At_call] schedules —
    what a test does between chaos rounds to replay a schedule. *)

val unknown_points : unit -> string list
(** Distinct unknown (or malformed) fault entries seen so far, in first-
    seen order.  Each warns on stderr exactly once per process — however
    many times it recurs across spec parsing and programmatic arming —
    and the distinct-name count is exported to the registry as
    [bdprint_faults_unknown_points]. *)

(** {2 Seeding} *)

val seed : int
(** The seed of the per-domain fault generators, from
    [BDPRINT_FAULTS_SEED] (default [0x6bd]).  Chaos harnesses fold this
    into their own corpus generators and print it, so one integer
    replays the whole run. *)

(** {2 Specification parsing} *)

val parse_spec : string -> (string * schedule) list * string list
(** [parse_spec s] parses a [BDPRINT_FAULTS]-style specification into
    [(armings, rejected)]: the list of [(point, schedule)] pairs to
    arm, and the entries that name unknown points or carry malformed
    probabilities or schedules (empty entries are skipped).  Pure —
    does not arm anything; the startup hook arms the valid entries and
    warns once on stderr about the rejected ones. *)
