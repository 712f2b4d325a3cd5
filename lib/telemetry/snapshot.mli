(** Typed, immutable snapshots of a metrics registry, and their three
    renderings: Prometheus text format, JSON, and the human "stats:"
    lines shared by [bdprint --stdin]'s sequential and parallel
    drivers. *)

type histogram_value = {
  bounds : int array;  (** inclusive upper bounds, without +Inf *)
  counts : int array;
      (** per-bucket (non-cumulative) counts, overflow bucket last *)
  sum : int;
  count : int;
  exemplar : (int * int) option;
      (** [(value, trace_id)] of the max-valued traced observation —
          rendered OpenMetrics-style on its bucket in Prometheus
          output and as an ["exemplar"] object in JSON; absent until a
          traced observation lands, so exemplar-free renderings are
          byte-identical to the pre-exemplar format. *)
}

type value = Counter of int | Gauge of int | Histogram of histogram_value

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

type t

val take : ?registry:Metrics.registry -> unit -> t
(** Snapshot of {!Metrics.default} (or [registry]), in registration
    order.  Lock-free reads of atomic cells: each value is exact at
    some point during the call. *)

val samples : t -> sample list

(** {2 Typed lookups} *)

val find : ?labels:(string * string) list -> t -> string -> sample option

val counter_value : ?labels:(string * string) list -> t -> string -> int
(** Sum over every sample of the family matching [labels] (all
    samples of the family when [labels] is omitted); 0 when absent. *)

val gauge_value : ?labels:(string * string) list -> t -> string -> int

val histogram_value :
  ?labels:(string * string) list -> t -> string -> histogram_value option

(** {2 Renderings} *)

val to_prometheus : t -> string
(** Prometheus text exposition format: one [# HELP]/[# TYPE] header per
    family, cumulative [_bucket{le=...}] series plus [_sum]/[_count]
    for histograms. *)

val to_json : t -> string
(** A JSON object [{"metrics": [...]}]; histogram buckets are
    cumulative, mirroring the Prometheus rendering. *)

val write_files : t -> string -> unit
(** [write_files snap path] writes {!to_json} to [path] and
    {!to_prometheus} beside it: to [path] with its [.json] suffix
    replaced by [.prom], or with [.prom] appended — the
    [--metrics FILE] dump of bdprint, bdprintd and bdlint.
    @raise Sys_error when a file cannot be written. *)

val pp_stream : Format.formatter -> t -> unit
(** The [bdprint --stats] rendering: two lines, the stream's line
    counts and its failures by error class. *)
