(** The bounded line reader behind [bdprint --stdin] and both ends of
    bdprintd's wire (the daemon's connections, {!Client} and the load
    generator): buffered [read(2)]s of 8 KiB, lines capped at the
    ambient {!Robust.Budget}'s [max_input_length] plus 64 bytes of
    slack for a request verb and spaces.

    A line over the cap is discarded up to its newline without being
    stored, and reported by length, so hostile input can neither make
    the reader buffer without bound nor desynchronise the lines after
    it.  A line that fits in one buffer costs one
    [Bytes.sub_string]. *)

type t

type line =
  | Line of string  (** a complete line, without its ['\n'] *)
  | Last of string
      (** the input's final bytes, which no ['\n'] ended; never empty *)
  | Too_long of { bytes : int; terminated : bool }
      (** a line over the cap, discarded: its length in bytes (without
          the ['\n']) and whether a ['\n'] ended it *)
  | Interrupted
      (** a signal interrupted [read(2)] ([EINTR]); what was read so far
          is kept, and the next {!read} carries on *)
  | Eof  (** end of input *)

val create :
  ?before_read:(unit -> unit) -> ?max_len:int -> Unix.file_descr -> t
(** A reader on [fd], whose cap is computed from the calling domain's
    budget now and saturates at [max_int] (so {!Robust.Budget.unlimited}
    lifts it).  [max_len] replaces that cap: {!Client} bounds replies at
    1 MiB under any budget.  [before_read] (default: nothing) runs just
    before each [read(2)], the only point where {!read} can block; an
    exception it raises propagates out of {!read}. *)

val read : t -> line
(** The next line.  Bytes are not interpreted: a ['\r'] before the
    ['\n'] stays in the line.
    @raise Unix.Unix_error when [read(2)] fails with an error other
    than [EINTR]: unlike {!Eof}, the input did not end. *)

val write : Unix.file_descr -> string -> int -> int -> unit
(** [write fd s off len] writes [len] bytes of [s] from [off]: the write
    side of the same streams, resuming after short writes and [EINTR].
    @raise Unix.Unix_error on any other write error ([EPIPE], a
    [SO_SNDTIMEO] timeout's [EAGAIN], ...). *)
