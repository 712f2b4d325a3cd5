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
  max_shed_wait_ms : int;
  hedge_ms : int option;
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
    max_shed_wait_ms = 2_000;
    hedge_ms = None;
    eject_threshold = 3;
    eject_cooldown_ms = 1_000;
    pool_size = 2;
  }

type tier = Remote of Addr.t | Local

type outcome = {
  output : string;
  degraded : bool;
  tier : tier;
  attempts : int;
}

type stats = {
  requests : int;
  remote_ok : int;
  remote_degraded : int;
  local_fallbacks : int;
  typed_errors : int;
  retries : int;
  sheds_honored : int;
  hedges : int;
  hedge_wins : int;
  ejections : int;
  readmissions : int;
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

type endpoint = {
  ep_addr : Addr.t;
  mutable pool : conn list;  (** idle connections; guarded by [t.m] *)
  mutable consec : int;  (** consecutive transport failures *)
  mutable ejected_until : float;  (** 0. = healthy; else parole time *)
}
[@@lint.guarded_by "m"]

type t = {
  cfg : config;
  eps : endpoint array;
  local : (string -> (string, Error.t) result) option;
  m : Mutex.t;
  rng : Random.State.t;  (** jitter; guarded by [m] *)
  mutable rr : int;
  mutable closed : bool;
  mutable s_requests : int;
  mutable s_remote_ok : int;
  mutable s_remote_deg : int;
  mutable s_local : int;
  mutable s_typed_errors : int;
  mutable s_retries : int;
  mutable s_sheds : int;
  mutable s_hedges : int;
  mutable s_hedge_wins : int;
  mutable s_ejections : int;
  mutable s_readmissions : int;
  mutable s_reconnects : int;
}
[@@lint.guarded_by "m"]

let m_requests =
  Telemetry.Metrics.counter ~help:"Client conversion requests."
    "bdprint_client_requests_total"

let m_retries =
  Telemetry.Metrics.counter
    ~help:"Client attempts beyond the first (failover, shed retry, backoff)."
    "bdprint_client_retries_total"

let m_sheds_honored =
  Telemetry.Metrics.counter
    ~help:"SHED replies honored by waiting the server's retry-after-ms hint."
    "bdprint_client_sheds_honored_total"

let m_hedges =
  Telemetry.Metrics.counter
    ~help:"Hedged secondary requests launched." "bdprint_client_hedges_total"

let m_ejections =
  Telemetry.Metrics.counter
    ~help:"Endpoints ejected after consecutive transport failures."
    "bdprint_client_ejections_total"

let m_readmissions =
  Telemetry.Metrics.counter
    ~help:"Ejected endpoints readmitted after a successful HEALTHZ probe."
    "bdprint_client_readmissions_total"

let m_local =
  Telemetry.Metrics.counter
    ~help:"Requests answered by the local in-process fallback tier."
    "bdprint_client_local_fallbacks_total"

let bump m = if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr m

let create ?(config = default_config) ?local addrs =
  (if addrs = [] then invalid_arg "Client.create: no endpoints")
  [@lint.can_raise Invalid_argument];
  {
    cfg = config;
    eps =
      Array.of_list
        (List.map
           (fun a -> { ep_addr = a; pool = []; consec = 0; ejected_until = 0. })
           addrs);
    local;
    m = Mutex.create ();
    rng = Random.State.make [| Faults.seed; 0x7c11e47 |];
    rr = 0;
    closed = false;
    s_requests = 0;
    s_remote_ok = 0;
    s_remote_deg = 0;
    s_local = 0;
    s_typed_errors = 0;
    s_retries = 0;
    s_sheds = 0;
    s_hedges = 0;
    s_hedge_wins = 0;
    s_ejections = 0;
    s_readmissions = 0;
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

(* {2 Endpoint bookkeeping} *)

let take_conn t ep =
  Mutex.lock t.m;
  let pooled =
    match ep.pool with
    | c :: rest ->
      ep.pool <- rest;
      Some c
    | [] -> None
  in
  if pooled = None then t.s_reconnects <- t.s_reconnects + 1;
  Mutex.unlock t.m;
  match pooled with Some c -> c | None -> connect_conn t.cfg ep.ep_addr

let pool_conn t ep conn =
  Mutex.lock t.m;
  let keep = (not t.closed) && List.length ep.pool < t.cfg.pool_size in
  if keep then ep.pool <- conn :: ep.pool;
  Mutex.unlock t.m;
  if not keep then close_fd conn.fd

let eject_locked t ep =
  if ep.ejected_until = 0. then begin
    t.s_ejections <- t.s_ejections + 1;
    bump m_ejections
  end;
  ep.ejected_until <-
    Unix.gettimeofday () +. (float t.cfg.eject_cooldown_ms /. 1000.);
  let stale = ep.pool in
  ep.pool <- [];
  stale

let penalize t ep =
  Mutex.lock t.m;
  ep.consec <- ep.consec + 1;
  let stale =
    if ep.consec >= t.cfg.eject_threshold then eject_locked t ep else []
  in
  Mutex.unlock t.m;
  List.iter (fun c -> close_fd c.fd) stale

(* a draining endpoint is ejected outright: it will shed every request
   until it dies, so the right response is immediate failover *)
let eject_now t ep =
  Mutex.lock t.m;
  let stale = eject_locked t ep in
  Mutex.unlock t.m;
  List.iter (fun c -> close_fd c.fd) stale

let reward t ep =
  Mutex.lock t.m;
  ep.consec <- 0;
  Mutex.unlock t.m

(* HEALTHZ probe of an ejected endpoint whose cooldown has elapsed:
   READY readmits it (and the probe connection joins the pool); anything
   else — DRAINING, a refused connect, garbage — extends the ejection by
   another cooldown. *)
let probe t ep =
  match
    try
      let conn = connect_conn t.cfg ep.ep_addr in
      (try
         send conn "HEALTHZ\n";
         match recv_reply conn with
         | Wire.Ready _ -> Some conn
         | _ ->
           close_fd conn.fd;
           None
       with Transport _ ->
         close_fd conn.fd;
         None)
    with Transport _ -> None
  with
  | Some conn ->
    Mutex.lock t.m;
    ep.consec <- 0;
    ep.ejected_until <- 0.;
    t.s_readmissions <- t.s_readmissions + 1;
    bump m_readmissions;
    Mutex.unlock t.m;
    pool_conn t ep conn;
    true
  | None ->
    Mutex.lock t.m;
    ep.ejected_until <-
      Unix.gettimeofday () +. (float t.cfg.eject_cooldown_ms /. 1000.);
    Mutex.unlock t.m;
    false

(* Next endpoint to try: round-robin over healthy endpoints; when none
   is healthy, probe any ejected endpoint whose cooldown has elapsed and
   use the first that readmits. *)
let pick t ~avoid =
  let n = Array.length t.eps in
  let now = Unix.gettimeofday () in
  Mutex.lock t.m;
  let healthy = ref None in
  let parole = ref [] in
  for k = 0 to n - 1 do
    let i = (t.rr + k) mod n in
    let ep = t.eps.(i) in
    if Option.map (fun a -> a == ep) avoid <> Some true then
      if ep.ejected_until = 0. then begin
        if !healthy = None then begin
          healthy := Some ep;
          t.rr <- i + 1
        end
      end
      else if now >= ep.ejected_until then parole := ep :: !parole
  done;
  let parole = List.rev !parole in
  Mutex.unlock t.m;
  match !healthy with
  | Some ep -> Some ep
  | None -> List.find_opt (fun ep -> probe t ep) parole

(* {2 One attempt} *)

type a_result =
  | R_ok of { out : string; degraded : bool }
  | R_err of Error.t  (** determinative remote error: do not retry *)
  | R_shed of int option  (** queue-full / overload, with retry-after *)
  | R_drain  (** endpoint draining: fail over, no sleep *)
  | R_retryable of Error.t  (** remote internal/proto error *)
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

let error_of_wire ~input cls detail =
  match cls with
  | "syntax" ->
    let msg =
      strip_suffix
        (Printf.sprintf " in %S" input)
        (strip_prefix "syntax error: " detail)
    in
    Error.syntax ~input msg
  | "range" ->
    Error.range ~what:"remote" (strip_prefix "range error: " detail)
  | "budget" ->
    Error.budget
      ~what:("remote: " ^ strip_prefix "budget exceeded: " detail)
      ~limit:0 ~got:0
  | _ -> Error.internal ~where:"net.client" (cls ^ ": " ^ detail)

let remaining_s deadline =
  match deadline with
  | None -> infinity
  | Some (d : Budget.deadline) -> d.Budget.expires_at -. Unix.gettimeofday ()

let attempt_once t ep ~deadline ~tid input =
  match take_conn t ep with
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
        pool_conn t ep conn;
        reward t ep;
        R_ok { out; degraded = false }
      | Wire.Degraded out ->
        pool_conn t ep conn;
        reward t ep;
        R_ok { out; degraded = true }
      | Wire.Failed { cls = ("internal" | "proto") as cls; detail } ->
        (* the stream is still in sync (the server answered in frame),
           but the answer is retryable: another endpoint — or the same
           one after backoff — may well succeed *)
        pool_conn t ep conn;
        reward t ep;
        R_retryable (error_of_wire ~input cls detail)
      | Wire.Failed { cls; detail } ->
        pool_conn t ep conn;
        reward t ep;
        R_err (error_of_wire ~input cls detail)
      | Wire.Shed { reason = "draining"; _ } ->
        close_fd conn.fd;
        R_drain
      | Wire.Shed { retry_after_ms; _ } ->
        pool_conn t ep conn;
        reward t ep;
        R_shed retry_after_ms
      | Wire.Pong | Wire.Ready _ | Wire.Draining _ | Wire.Batch_end _
      | Wire.Payload _ | Wire.Bye ->
        finish_transport "unexpected reply tag"
    with Transport msg -> finish_transport msg)

(* A [Client_attempt] span brackets each network attempt.  The trace id
   travels explicitly — never through Domain.DLS — because hedged
   attempts run on a helper {e thread} of the same domain and would
   otherwise clobber each other's ambient id. *)
let attempt t ep ~deadline ~tid input =
  if tid = 0 then attempt_once t ep ~deadline ~tid input
  else begin
    let t0 = Telemetry.Tracing.start_for tid in
    let r = attempt_once t ep ~deadline ~tid input in
    let note =
      match r with
      | R_ok { degraded = false; _ } -> "ok"
      | R_ok { degraded = true; _ } -> "degraded"
      | R_err _ -> "error"
      | R_shed _ -> "shed"
      | R_drain -> "drain"
      | R_retryable _ -> "retryable"
      | R_transport _ -> "transport"
    in
    Telemetry.Tracing.finish ~note ~tid Telemetry.Tracing.Client_attempt t0;
    r
  end

(* {2 Hedging}

   Conversions are pure, so sending the same request to a second
   endpoint is always safe — the worst case is wasted work.  The
   primary attempt runs on a helper thread; if it has not answered
   within [hedge_ms], the secondary runs on the calling thread and the
   first conversational result wins.  A still-blocked primary is left
   to finish in the background (it only touches its own connection and
   the mutex-guarded pools). *)

type hedge_box = { hm : Mutex.t; mutable hres : a_result option }
[@@lint.guarded_by "hm"]

let hedge_read box =
  Mutex.lock box.hm;
  let r = box.hres in
  Mutex.unlock box.hm;
  r

(* Returns the result paired with the endpoint that produced it, so the
   caller attributes the outcome (and any penalty) to the actual
   answerer rather than the primary pick. *)
let attempt_maybe_hedged t ep ~deadline ~tid input =
  match t.cfg.hedge_ms with
  | None -> (attempt t ep ~deadline ~tid input, ep)
  | Some h -> (
    match pick t ~avoid:(Some ep) with
    | None -> (attempt t ep ~deadline ~tid input, ep)
    | Some ep2 -> (
      let box = { hm = Mutex.create (); hres = None } in
      let th =
        Thread.create
          (fun () ->
            let r = attempt t ep ~deadline ~tid input in
            Mutex.lock box.hm;
            box.hres <- Some r;
            Mutex.unlock box.hm)
          ()
      in
      (* Condition.wait has no timeout in the stdlib: poll at 1 ms *)
      let rec wait_primary i =
        match hedge_read box with
        | Some r -> Some r
        | None ->
          if i >= h then None
          else begin
            Thread.delay 0.001;
            wait_primary (i + 1)
          end
      in
      match wait_primary 0 with
      | Some r ->
        Thread.join th;
        (r, ep)
      | None -> (
        Mutex.lock t.m;
        t.s_hedges <- t.s_hedges + 1;
        bump m_hedges;
        Mutex.unlock t.m;
        (* the hedge span covers the secondary attempt from launch *)
        let h0 = Telemetry.Tracing.start_for tid in
        let r2 = attempt t ep2 ~deadline ~tid input in
        Telemetry.Tracing.finish ~tid Telemetry.Tracing.Client_hedge h0;
        match (hedge_read box, r2) with
        | Some (R_ok _ as r1), _ ->
          (* primary finished while the hedge ran: prefer it (its
             connection bookkeeping is already settled) *)
          Thread.join th;
          (r1, ep)
        | _, R_ok _ ->
          Mutex.lock t.m;
          t.s_hedge_wins <- t.s_hedge_wins + 1;
          Mutex.unlock t.m;
          (r2, ep2)
        | Some r1, _ ->
          Thread.join th;
          (match r1 with
          | (R_err _ | R_retryable _ | R_shed _) as r -> (r, ep)
          | _ -> (r2, ep2))
        | None, _ ->
          (* primary still wedged on its socket: take the secondary's
             answer and let the primary clean itself up when it wakes *)
          (r2, ep2))))

(* {2 The request loop} *)

let traced_delay ~tid ?note s =
  if s > 0. then begin
    let t0 = Telemetry.Tracing.start_for tid in
    Thread.delay s;
    Telemetry.Tracing.finish ?note ~tid Telemetry.Tracing.Client_backoff t0
  end

let jittered_backoff t ~attempt ~deadline ~tid =
  let base =
    t.cfg.backoff_ms *. (t.cfg.backoff_multiplier ** float_of_int attempt)
  in
  let capped = Float.min base t.cfg.backoff_cap_ms in
  Mutex.lock t.m;
  let jitter = 0.5 +. Random.State.float t.rng 1.0 in
  Mutex.unlock t.m;
  let s = Float.min (capped *. jitter /. 1000.) (remaining_s deadline) in
  traced_delay ~tid s

let shed_wait t ~hint ~deadline ~tid =
  let ms =
    match hint with
    | Some ms -> min ms t.cfg.max_shed_wait_ms
    | None -> int_of_float t.cfg.backoff_cap_ms
  in
  let s = Float.min (float ms /. 1000.) (remaining_s deadline) in
  traced_delay ~tid ~note:"shed" s

let count_result t r =
  Mutex.lock t.m;
  (match r with
  | Result.Ok { tier = Local; _ } ->
    t.s_local <- t.s_local + 1;
    bump m_local
  | Result.Ok { degraded = true; _ } -> t.s_remote_deg <- t.s_remote_deg + 1
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
            Result.Ok { output = out; degraded = false; tier = Local; attempts }
          | Result.Error _ as e -> e)
      | None ->
        count_result t
          (Result.Error
             (Option.value last_err
                ~default:
                  (Error.internal ~where:"net.client" "no endpoint reachable")))
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
      | _ ->
        if n >= t.cfg.max_attempts then local_tier ~attempts:n last_err
        else begin
          match pick t ~avoid:None with
          | None -> local_tier ~attempts:n last_err
          | Some ep -> (
            let result, won = attempt_maybe_hedged t ep ~deadline ~tid input in
            match result with
            | R_ok { out; degraded } ->
              count_result t
                (Result.Ok
                   {
                     output = out;
                     degraded;
                     tier = Remote won.ep_addr;
                     attempts = n + 1;
                   })
            | R_err e -> count_result t (Result.Error e)
            | R_shed hint ->
              Mutex.lock t.m;
              t.s_sheds <- t.s_sheds + 1;
              bump m_sheds_honored;
              Mutex.unlock t.m;
              shed_wait t ~hint ~deadline ~tid;
              loop (n + 1)
                (Some (Error.internal ~where:"net.client" "remote shed"))
            | R_drain ->
              eject_now t won;
              (* immediate failover: the endpoint told us it is dying *)
              loop (n + 1) last_err
            | R_retryable e ->
              jittered_backoff t ~attempt:n ~deadline ~tid;
              loop (n + 1) (Some e)
            | R_transport msg ->
              penalize t won;
              jittered_backoff t ~attempt:n ~deadline ~tid;
              loop (n + 1)
                (Some (Error.internal ~where:"net.client" msg)))
        end
    in
    loop 0 None
  end

(* {2 Lifecycle and statistics} *)

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  let conns = Array.fold_left (fun acc ep -> ep.pool @ acc) [] t.eps in
  Array.iter (fun ep -> ep.pool <- []) t.eps;
  Mutex.unlock t.m;
  List.iter (fun c -> close_fd c.fd) conns

let stats t =
  Mutex.lock t.m;
  let s =
    {
      requests = t.s_requests;
      remote_ok = t.s_remote_ok;
      remote_degraded = t.s_remote_deg;
      local_fallbacks = t.s_local;
      typed_errors = t.s_typed_errors;
      retries = t.s_retries;
      sheds_honored = t.s_sheds;
      hedges = t.s_hedges;
      hedge_wins = t.s_hedge_wins;
      ejections = t.s_ejections;
      readmissions = t.s_readmissions;
      reconnects = t.s_reconnects;
    }
  in
  Mutex.unlock t.m;
  s

let endpoint_states t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.m;
  let s =
    Array.to_list
      (Array.map
         (fun ep -> (Addr.to_string ep.ep_addr, now >= ep.ejected_until))
         t.eps)
  in
  Mutex.unlock t.m;
  s
