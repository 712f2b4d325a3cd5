module Error = Robust.Error
module Budget = Robust.Budget
module Faults = Robust.Faults

(* {2 Configuration} *)

type config = {
  connect_timeout_ms : int;
  request_timeout_ms : int;
  max_attempts : int;
  backoff_ms : float;
  backoff_multiplier : float;
  backoff_cap_ms : float;
  eject_threshold : int;
  eject_cooldown_ms : int;
  pool_size : int;
}

let default_config =
  {
    connect_timeout_ms = 1_000;
    request_timeout_ms = 5_000;
    max_attempts = 4;
    backoff_ms = 5.0;
    backoff_multiplier = 2.0;
    backoff_cap_ms = 200.0;
    eject_threshold = 3;
    eject_cooldown_ms = 1_000;
    pool_size = 2;
  }

type tier = Remote of Addr.t | Local

type outcome = {
  output : string;
  tier : tier;
  attempts : int;
}

type stats = {
  requests : int;
  remote_ok : int;
  local_fallbacks : int;
  typed_errors : int;
  retries : int;
  ejections : int;
  reconnects : int;
}

(* {2 Internal state} *)

(* One pooled connection: a line reader over the socket, the time by
   which the current attempt's replies must have arrived, and the
   DEADLINE value last installed on the server side of this connection
   (the server's deadline is per-connection state). *)
type conn = {
  fd : Unix.file_descr;
  reader : Line_reader.t;
  read_by : float ref;
  mutable conn_deadline_ms : int;  (** 0 = none installed *)
}
[@@lint.domain_safe "a conn is owned by exactly one attempt at a time"]

type t = {
  cfg : config;
  addr : Addr.t;
  local : (string -> (string, Error.t) result) option;
  m : Mutex.t;
  rng : Random.State.t;  (** jitter; guarded by [m] *)
  mutable pool : conn list;  (** idle connections *)
  mutable consec : int;  (** consecutive transport failures *)
  mutable down_until : float;
      (** 0. = up; else the time after which a request tries the
          daemon again *)
  mutable closed : bool;
  mutable s_requests : int;
  mutable s_remote_ok : int;
  mutable s_local : int;
  mutable s_typed_errors : int;
  mutable s_retries : int;
  mutable s_ejections : int;
  mutable s_reconnects : int;
}
[@@lint.guarded_by "m"]

let m_requests =
  Telemetry.Metrics.counter ~help:"Client conversion requests."
    "bdprint_client_requests_total"

let m_retries =
  Telemetry.Metrics.counter
    ~help:"Client attempts beyond the first (shed retry, backoff)."
    "bdprint_client_retries_total"

let m_ejections =
  Telemetry.Metrics.counter
    ~help:
      "Times the daemon was marked down, after consecutive transport \
       failures or a SHED draining reply."
    "bdprint_client_ejections_total"

let m_local =
  Telemetry.Metrics.counter
    ~help:"Requests answered by the local in-process fallback tier."
    "bdprint_client_local_fallbacks_total"

let bump m = if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr m

let create ?(config = default_config) ?local addr =
  {
    cfg = config;
    addr;
    local;
    m = Mutex.create ();
    rng = Random.State.make [| Faults.seed; 0x7c11e47 |];
    pool = [];
    consec = 0;
    down_until = 0.;
    closed = false;
    s_requests = 0;
    s_remote_ok = 0;
    s_local = 0;
    s_typed_errors = 0;
    s_retries = 0;
    s_ejections = 0;
    s_reconnects = 0;
  }

(* {2 Transport}

   [Transport] is the module-internal carrier for socket-level failures
   (EOF, timeout, refused, reset, malformed frame): every raise site is
   confined to the I/O helpers below and caught at the single [attempt]
   boundary, where it becomes a retryable classification — it can never
   escape the public API. *)

exception Transport of string

let fail_transport msg = (raise (Transport msg)) [@lint.can_raise Transport]

let close_fd fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* A reply longer than this fails the attempt, whatever the budget:
   a hostile daemon cannot make the client buffer without bound. *)
let max_reply_len = 1 lsl 20

let connect_conn cfg addr =
  let sockaddr =
    match Addr.sockaddr addr with
    | Result.Ok a -> a
    | Result.Error msg -> fail_transport msg
  in
  let fd =
    try
      Unix.socket ~cloexec:true
        (Unix.domain_of_sockaddr sockaddr)
        Unix.SOCK_STREAM 0
    with Unix.Unix_error (e, _, _) ->
      fail_transport ("socket: " ^ Unix.error_message e)
  in
  try
    let to_s = float cfg.connect_timeout_ms /. 1000. in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO to_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO to_s;
    Unix.connect fd sockaddr;
    (* SO_RCVTIMEO bounds each read(2); [read_by] bounds them together,
       so a peer that streams bytes without a newline cannot hold an
       attempt past its timeout *)
    let read_by = ref (Unix.gettimeofday () +. to_s) in
    let before_read () =
      if Unix.gettimeofday () > !read_by then fail_transport "read timeout"
    in
    {
      fd;
      reader = Line_reader.create ~before_read ~max_len:max_reply_len fd;
      read_by;
      conn_deadline_ms = 0;
    }
  with
  | Unix.Unix_error (e, _, _) ->
    close_fd fd;
    fail_transport ("connect: " ^ Unix.error_message e)
  | Transport _ as e ->
    close_fd fd;
    (raise e) [@lint.can_raise Transport]

let send conn s =
  match Line_reader.write conn.fd s 0 (String.length s) with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    fail_transport "write timeout"
  | exception Unix.Unix_error (e, _, _) ->
    fail_transport ("write: " ^ Unix.error_message e)

let rec recv_line conn =
  match Line_reader.read conn.reader with
  | Line_reader.Line s -> s
  | Last _ | Eof -> fail_transport "connection closed"
  | Too_long _ -> fail_transport "reply frame too long"
  | Interrupted -> recv_line conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    fail_transport "read timeout"
  | exception Unix.Unix_error (e, _, _) ->
    fail_transport ("read: " ^ Unix.error_message e)

let recv_reply conn =
  match Wire.parse_reply_line (recv_line conn) with
  | Result.Ok r -> r
  | Result.Error reason -> fail_transport ("malformed reply: " ^ reason)

(* {2 The pool and the down state}

   [eject_threshold] consecutive transport failures, or one [SHED
   draining], mark the daemon down until [down_until], and close the
   pooled connections.  Until then every request goes straight to the
   local tier.  The first request after the cooldown tries the daemon:
   the failure count is still at the threshold, so one more transport
   failure marks it down again, while any in-frame answer clears the
   state. *)

let take_conn t =
  Mutex.lock t.m;
  let pooled =
    match t.pool with
    | c :: rest ->
      t.pool <- rest;
      Some c
    | [] -> None
  in
  if pooled = None then t.s_reconnects <- t.s_reconnects + 1;
  Mutex.unlock t.m;
  match pooled with Some c -> c | None -> connect_conn t.cfg t.addr

let mark_down_locked t =
  if t.down_until = 0. then begin
    t.s_ejections <- t.s_ejections + 1;
    bump m_ejections
  end;
  t.down_until <-
    Unix.gettimeofday () +. (float t.cfg.eject_cooldown_ms /. 1000.);
  let stale = t.pool in
  t.pool <- [];
  stale

(* A draining daemon reaches the threshold at once: it will shed every
   request until it exits. *)
let mark_down t =
  Mutex.lock t.m;
  t.consec <- max t.consec t.cfg.eject_threshold;
  let stale = mark_down_locked t in
  Mutex.unlock t.m;
  List.iter (fun c -> close_fd c.fd) stale

(* True when this failure marked the daemon down. *)
let penalize t =
  Mutex.lock t.m;
  t.consec <- t.consec + 1;
  let down = t.consec >= t.cfg.eject_threshold in
  let stale = if down then mark_down_locked t else [] in
  Mutex.unlock t.m;
  List.iter (fun c -> close_fd c.fd) stale;
  down

(* The daemon answered in frame: it is up, and the connection goes
   back to the pool. *)
let answered t conn =
  Mutex.lock t.m;
  t.consec <- 0;
  t.down_until <- 0.;
  let keep = (not t.closed) && List.length t.pool < t.cfg.pool_size in
  if keep then t.pool <- conn :: t.pool;
  Mutex.unlock t.m;
  if not keep then close_fd conn.fd

let is_down t =
  Mutex.lock t.m;
  let until = t.down_until in
  Mutex.unlock t.m;
  Unix.gettimeofday () < until

(* {2 One attempt} *)

type a_result =
  | R_ok of string
  | R_err of Error.t  (** determinative remote error: do not retry *)
  | R_drain  (** daemon draining: mark it down, no sleep *)
  | R_retryable of Error.t  (** remote internal/proto error or shed *)
  | R_transport of string  (** connection unusable *)

(* The server's [detail] is its fully rendered error message; strip
   the class prefix (and the echoed input, for syntax errors) before
   rebuilding the typed error so the client-side rendering does not
   duplicate them. *)
let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.sub s 0 lp = p then
    String.sub s lp (String.length s - lp)
  else s

let strip_suffix suf s =
  let ls = String.length s and lf = String.length suf in
  if ls >= lf && String.sub s (ls - lf) lf = suf then String.sub s 0 (ls - lf)
  else s

(* A budget detail is "WHAT: GOT > limit LIMIT", [Error.to_string]'s
   rendering after its class prefix: read its three fields back, so
   the error prints as it would in-process.  Any other detail keeps its
   text, marked remote. *)
let budget_of_detail body =
  let fields =
    match String.rindex_opt body ':' with
    | None -> None
    | Some i -> (
      let tail = String.sub body (i + 1) (String.length body - i - 1) in
      match String.split_on_char ' ' tail with
      | [ ""; got; ">"; "limit"; limit ] -> (
        match (int_of_string_opt got, int_of_string_opt limit) with
        | Some got, Some limit -> Some (String.sub body 0 i, got, limit)
        | _ -> None)
      | _ -> None)
  in
  match fields with
  | Some (what, got, limit) -> Error.budget ~what ~limit ~got
  | None -> Error.budget ~what:("remote: " ^ body) ~limit:0 ~got:0

let error_of_wire ~input cls detail =
  match cls with
  | "syntax" ->
    (* the echo is of the input as [Error.syntax] keeps it: past 60
       bytes, truncated *)
    let echo =
      strip_prefix "syntax error: " (Error.to_string (Error.syntax ~input ""))
    in
    Error.syntax ~input
      (strip_suffix echo (strip_prefix "syntax error: " detail))
  | "range" ->
    Error.range ~what:"remote" (strip_prefix "range error: " detail)
  | "budget" -> budget_of_detail (strip_prefix "budget exceeded: " detail)
  | _ -> Error.internal ~where:"net.client" (cls ^ ": " ^ detail)

let remaining_s deadline =
  match deadline with
  | None -> infinity
  | Some (d : Budget.deadline) -> d.Budget.expires_at -. Unix.gettimeofday ()

let attempt_once t ~deadline ~tid input =
  match take_conn t with
  | exception Transport msg -> R_transport msg
  | conn -> (
    let finish_transport msg =
      close_fd conn.fd;
      R_transport msg
    in
    try
      let timeout_s =
        Float.min
          (float t.cfg.request_timeout_ms /. 1000.)
          (Float.max 0.01 (remaining_s deadline))
      in
      Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO timeout_s;
      Unix.setsockopt_float conn.fd Unix.SO_SNDTIMEO timeout_s;
      conn.read_by := Unix.gettimeofday () +. timeout_s;
      let dl_ms =
        match deadline with
        | None -> 0
        | Some _ ->
          max 1 (int_of_float (ceil (Float.max 0.001 (remaining_s deadline) *. 1e3)))
      in
      (* the server's DEADLINE is per-connection state: (re)install it
         whenever it differs from what this pooled connection carries,
         pipelined in front of the CONV to save a round trip *)
      let needs_deadline = dl_ms <> conn.conn_deadline_ms in
      let frame =
        (if needs_deadline then Printf.sprintf "DEADLINE %d\n" dl_ms else "")
        ^ Wire.render_conv ~tid input
      in
      send conn frame;
      conn.conn_deadline_ms <- dl_ms;
      if needs_deadline then begin
        match recv_reply conn with
        | Wire.Converted _ -> ()
        | _ -> fail_transport "bad DEADLINE ack"
      end;
      match recv_reply conn with
      | Wire.Converted out ->
        answered t conn;
        R_ok out
      | Wire.Failed { cls = ("internal" | "proto") as cls; detail } ->
        (* the stream is still in sync (the server answered in frame),
           but the answer is retryable: after backoff it may well
           succeed *)
        answered t conn;
        R_retryable (error_of_wire ~input cls detail)
      | Wire.Failed { cls; detail } ->
        answered t conn;
        R_err (error_of_wire ~input cls detail)
      | Wire.Shed "draining" ->
        close_fd conn.fd;
        R_drain
      | Wire.Shed _ ->
        (* queue-full: retried on the client's own backoff *)
        answered t conn;
        R_retryable (Error.internal ~where:"net.client" "remote shed")
      | Wire.Pong | Wire.Payload _ | Wire.Bye ->
        finish_transport "unexpected reply tag"
    with Transport msg -> finish_transport msg)

(* A [Client_attempt] span brackets each network attempt.  The trace id
   travels explicitly — never through Domain.DLS — because the threads
   of one domain that share a client also share its DLS slot. *)
let attempt t ~deadline ~tid input =
  if tid = 0 then attempt_once t ~deadline ~tid input
  else begin
    let t0 = Telemetry.Tracing.start_for tid in
    let r = attempt_once t ~deadline ~tid input in
    let note =
      match r with
      | R_ok _ -> "ok"
      | R_err _ -> "error"
      | R_drain -> "drain"
      | R_retryable _ -> "retryable"
      | R_transport _ -> "transport"
    in
    Telemetry.Tracing.finish ~note ~tid Telemetry.Tracing.Client_attempt t0;
    r
  end

(* {2 The request loop} *)

let jittered_backoff t ~attempt ~deadline ~tid =
  let base =
    t.cfg.backoff_ms *. (t.cfg.backoff_multiplier ** float_of_int attempt)
  in
  let capped = Float.min base t.cfg.backoff_cap_ms in
  Mutex.lock t.m;
  let jitter = 0.5 +. Random.State.float t.rng 1.0 in
  Mutex.unlock t.m;
  let s = Float.min (capped *. jitter /. 1000.) (remaining_s deadline) in
  if s > 0. then begin
    let t0 = Telemetry.Tracing.start_for tid in
    Thread.delay s;
    Telemetry.Tracing.finish ~tid Telemetry.Tracing.Client_backoff t0
  end

let count_result t r =
  Mutex.lock t.m;
  (match r with
  | Result.Ok { tier = Local; _ } ->
    t.s_local <- t.s_local + 1;
    bump m_local
  | Result.Ok _ -> t.s_remote_ok <- t.s_remote_ok + 1
  | Result.Error _ -> t.s_typed_errors <- t.s_typed_errors + 1);
  Mutex.unlock t.m;
  r

let convert t ?deadline_ms input =
  Mutex.lock t.m;
  t.s_requests <- t.s_requests + 1;
  bump m_requests;
  let closed = t.closed in
  Mutex.unlock t.m;
  if closed then
    Result.Error (Error.internal ~where:"net.client" "client is closed")
  else begin
    let deadline = Option.map (fun ms -> Budget.deadline_after ~ms) deadline_ms in
    (* Adopt the caller's ambient trace id (the CLI's per-line request
       root) when present; otherwise make a fresh sampling decision, so
       library users of [convert] still get traced requests. *)
    let tid =
      match Telemetry.Tracing.current () with
      | 0 -> Telemetry.Tracing.sample ()
      | ambient -> ambient
    in
    let local_tier ~attempts last_err =
      match t.local with
      | Some f ->
        count_result t
          (match f input with
          | Result.Ok out ->
            Result.Ok { output = out; tier = Local; attempts }
          | Result.Error _ as e -> e)
      | None ->
        count_result t
          (Result.Error
             (Option.value last_err
                ~default:(Error.internal ~where:"net.client" "daemon is down")))
    in
    let rec loop n last_err =
      if n > 0 then begin
        Mutex.lock t.m;
        t.s_retries <- t.s_retries + 1;
        bump m_retries;
        Mutex.unlock t.m
      end;
      match deadline with
      | Some d when Budget.expired d ->
        count_result t (Result.Error (Budget.deadline_error d))
      | _ -> (
        if n >= t.cfg.max_attempts || is_down t then
          local_tier ~attempts:n last_err
        else
          match attempt t ~deadline ~tid input with
          | R_ok out ->
            count_result t
              (Result.Ok { output = out; tier = Remote t.addr; attempts = n + 1 })
          | R_err e -> count_result t (Result.Error e)
          | R_drain ->
            mark_down t;
            loop (n + 1) last_err
          | R_retryable e ->
            jittered_backoff t ~attempt:n ~deadline ~tid;
            loop (n + 1) (Some e)
          | R_transport msg ->
            (* no backoff once the daemon is down: the local tier is next *)
            if not (penalize t) then jittered_backoff t ~attempt:n ~deadline ~tid;
            loop (n + 1) (Some (Error.internal ~where:"net.client" msg)))
    in
    if not (Wire.conv_reads_back ~tid input) then
      (* its CONV line would make the daemon convert another string; the
         library's strict grammar rejects every such input *)
      local_tier ~attempts:0 (Some (Error.syntax ~input "not a number"))
    else begin
      let limit = (Budget.get ()).Budget.max_input_length in
      if String.length input <= limit then loop 0 None
      else
        (* refused in-process by the reader's length check; a daemon on
           the same budget refuses it too or, past its frame cap (the
           budget plus 64 bytes), discards the line unread and answers
           ERR proto *)
        local_tier ~attempts:0
          (Some
             (Error.budget ~what:"input length" ~limit
                ~got:(String.length input)))
    end
  end

(* {2 Lifecycle and statistics} *)

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  let conns = t.pool in
  t.pool <- [];
  Mutex.unlock t.m;
  List.iter (fun c -> close_fd c.fd) conns

let stats t =
  Mutex.lock t.m;
  let s =
    {
      requests = t.s_requests;
      remote_ok = t.s_remote_ok;
      local_fallbacks = t.s_local;
      typed_errors = t.s_typed_errors;
      retries = t.s_retries;
      ejections = t.s_ejections;
      reconnects = t.s_reconnects;
    }
  in
  Mutex.unlock t.m;
  s
