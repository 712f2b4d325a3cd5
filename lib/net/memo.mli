(** A bounded hot-value cache in front of bdprintd's conversion
    pipeline.

    Real traffic prints the same small set of values constantly (0, 1,
    0.5, small integers — see the Experimental Review survey cited in
    PAPERS.md), so a memo table turns the common case into one hash
    probe.  It is one table under one mutex: its only caller is
    {!Server}'s conversion path, which runs on connection threads of the
    one domain that started the server, so those threads take the mutex
    one at a time anyway.  The capacity is fixed: inserting a new key
    into a full cache evicts the oldest key (FIFO), keeping the cache
    strictly bounded however hostile the key stream.

    Only exact pipeline outputs belong here: degraded fallbacks and
    errors are never cached, so a cache hit is always a correct
    conversion. *)

type t

type stats = {
  hits : int;
  misses : int;
  entries : int;  (** currently cached pairs *)
  evictions : int;
  insertions : int;  (** new-key inserts; [insertions = entries + evictions] *)
  replacements : int;  (** in-place updates of an existing key *)
  capacity : int;  (** the entry bound *)
}

val create : capacity:int -> t
(** A cache of at most [capacity] entries.
    @raise Invalid_argument if [capacity < 1]. *)

val find : t -> string -> string option
(** Lookup; counts a hit or a miss. *)

val add : t -> string -> string -> unit
(** Inserts, evicting the oldest key when the cache is full.  A key
    already present is replaced in place: the cache does not grow, and
    the key keeps its place in the eviction order. *)

val stats : t -> stats
(** A snapshot read under the mutex, so the counters reconcile exactly
    once writers are quiescent: [hits + misses] = total finds,
    [insertions = entries + evictions], and
    [insertions + replacements] = total adds.  [entries] never exceeds
    [capacity]. *)
