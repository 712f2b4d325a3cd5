(** Resource budgets: the caps that keep hostile input from turning the
    exact-arithmetic substrate into an OOM or a hang.

    The exact reader and the fixed-format converter are happy to build
    multi-megabyte bignums for inputs like [1e999999999] or
    [--places 1000000].  A budget bounds each dimension the pipeline can
    spend: input bytes, decimal-exponent magnitude, bignum size, emitted
    digits.  Checks raise {!Error.E} with a [Budget] payload; the public
    API boundaries convert that into [Error (Budget _)] via
    {!Error.catch}.

    The budget is ambient — and {e domain-local}, so every worker domain
    of the service layer carries its own caps — which lets the checks
    sit inside the digit loops without threading a parameter through
    every layer.  {!default} is permissive enough that no legitimate
    conversion in this repository comes near a cap.

    On top of the size caps, the same check sites enforce a cooperative
    per-request {e deadline}: when one is set ({!set_deadline} /
    {!with_deadline}), every [check_*] call first verifies that the
    wall clock has not passed it, and raises a [Budget] error with
    [what = ]{!deadline_what} if it has.  Because the exact digit loops
    call a check on every iteration, a request that has run out of time
    is cut off within one unit of work; the table tier checks the
    deadline once per attempt of at most 17 digits. *)

type t = {
  max_input_length : int;  (** bytes of input text accepted by parsers *)
  max_exponent : int;
      (** magnitude of a decimal (or other-base) scale exponent that may
          be turned into an actual bignum power *)
  max_output_digits : int;
      (** digits a single conversion may emit (also bounds the
          fixed-format position span and the digit-loop iterations) *)
  max_bignum_bits : int;
      (** bit size of any single constructed power/scaled operand *)
}

val default : t
(** 64 KiB of input, exponents to 100_000, 20_000 output digits, 2 Mbit
    bignums. *)

val unlimited : t
(** Every cap at [max_int]; for tests and offline experiments. *)

val get : unit -> t
val set : t -> unit

val with_budget : t -> (unit -> 'a) -> 'a
(** Runs the thunk under a temporary budget, restoring the previous one
    (also on exception). *)

(** {2 Deadlines} *)

type deadline = {
  expires_at : float;  (** absolute wall-clock time ([Unix.gettimeofday]) *)
  started_at : float;  (** when the grant was issued *)
  grant_ms : int;  (** the original allowance, for error reporting *)
}

val deadline_after : ms:int -> deadline
(** A deadline expiring [ms] milliseconds from now. *)

val expired : deadline -> bool

val set_deadline : deadline option -> unit
(** Installs (or clears, with [None]) the current domain's deadline. *)

val get_deadline : unit -> deadline option

val with_deadline : ms:int -> (unit -> 'a) -> 'a
(** Runs the thunk under a fresh [ms]-millisecond deadline, restoring
    the previous deadline state afterwards (also on exception). *)

val check_deadline : unit -> unit
(** Raises [Error.E (Budget { what = deadline_what; _ })] if the current
    domain's deadline has passed; a no-op when none is set.  Called
    automatically by every [check_*] function below. *)

val deadline_what : string
(** The [what] field of a deadline-exceeded [Budget] error:
    ["deadline-ms"].  [limit] is the granted allowance in milliseconds
    and [got] the elapsed time. *)

val deadline_error : deadline -> Error.t
(** The structured timeout error for an expired deadline (used by the
    service layer's pre-flight check; [check_deadline] raises it). *)

(** Each check raises [Error.E (Budget _)] when the value exceeds the
    current budget, and returns unit otherwise. *)

val check_input_length : int -> unit
val check_exponent : int -> unit
val check_output_digits : int -> unit
val check_bignum_bits : int -> unit

val input_length_ok : int -> bool
(** [check_input_length]'s verdict without the raise and without the
    observation: [true] when the length is within the cap and no
    deadline has passed.  For a scanner that hands every rejected input
    to a parser whose [check_input_length] builds the error. *)

(** {2 Telemetry} *)

val observe_input_length : int -> unit
(** Records one parse request's input length into the
    [bdprint_budget_input_length_bytes] histogram (a no-op while
    telemetry is disabled), as [check_input_length] does.  For the
    scanner that admitted the input with {!input_length_ok}. *)

val observe_output_digits : int -> unit
(** Records one conversion's final emitted-digit count into the
    [bdprint_budget_output_digits] histogram (a no-op while telemetry
    is disabled).  Called once per conversion by the digit loops and
    the table tier's hits, the one record of the digit count —
    unlike the other budget dimensions, which are observed directly at
    their [check_*] sites, the output-digit check runs on every loop
    iteration and would otherwise record each conversion once per
    digit. *)
