(** A bounded blocking queue with close semantics — the submission
    channel between the service's producer and its worker domains.

    [put] blocks while the queue is full (this is the service layer's
    backpressure) and [take] blocks while it is empty.  After {!close},
    producers get {!Closed} and consumers drain the remaining elements
    before receiving [None] — so closing never drops work. *)

type 'a t

exception Closed

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val put : 'a t -> 'a -> unit
(** Blocks while full.  @raise Closed if the queue has been closed. *)

val take : 'a t -> 'a option
(** Blocks while empty and open; [None] once the queue is closed {e and}
    drained. *)

val close : 'a t -> unit
(** Idempotent.  Wakes all blocked producers and consumers. *)
