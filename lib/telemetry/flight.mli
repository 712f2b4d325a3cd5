(** Crash flight recorder: fixed-size per-domain rings of recent
    structured events, dumped as JSONL on a worker crash or wedge.

    Each domain appends events — request admitted, service start,
    fault trip, worker crash, deadline state — to its own
    pre-allocated ring (oldest overwritten); the supervisor calls
    {!dump} when a worker dies, which appends every ring, globally
    ordered by sequence number, to the configured file.  The poisoned
    request is the last "service-start" without a completion.

    Recording is lock-free and allocation-bounded (one small immutable
    record per event into a fixed slot array) and a no-op unless
    {!enabled} — hot paths guard sites with [if Flight.enabled ()]
    where they add work beyond the call itself. *)

val enabled : unit -> bool
(** One atomic load; when false, {!record} and {!dump} are no-ops. *)

val set_enabled : bool -> unit

val record : ?req:int -> kind:string -> string -> unit
(** [record ~req ~kind detail] appends an event to this domain's ring.
    [req] is the request/job id the event belongs to (0 = none);
    [kind] is a stable small vocabulary ("service-start", "crash",
    "wedge", "fault-trip", ...); [detail] is free
    text.  No-op when disabled. *)

val set_dump_path : string option -> unit
(** Where {!dump} appends its JSONL; [None] (the default) makes
    {!dump} record-only (events stay in the rings for {!to_jsonl}). *)

val dump : reason:string -> unit
(** Appends a dump-header line [{"flight_dump":true,"reason":...}]
    followed by every ring's events in global order to the configured
    path.  Serialized by a mutex; recording never blocks on it. *)

val dump_count : unit -> int
(** Dumps successfully written since startup. *)

val to_jsonl : ?reason:string -> unit -> string
(** The rings' contents as JSONL (one event object per line), with a
    dump-header line first when [reason] is given. *)

val events_recorded : unit -> int
(** Events currently held across all rings. *)

val clear : unit -> unit
(** Empties every ring and resets the sequence counter (tests). *)
