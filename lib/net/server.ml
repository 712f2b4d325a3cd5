module Error = Robust.Error
module Faults = Robust.Faults
module Supervisor = Service.Supervisor

type config = {
  jobs : int;
  admission_capacity : int;
  cache_capacity : int;
  default_deadline_ms : int option;
  watchdog : Supervisor.watchdog_policy option;
}

let default_config =
  {
    jobs = 2;
    admission_capacity = 256;
    cache_capacity = 4096;
    default_deadline_ms = None;
    watchdog = Some Supervisor.default_watchdog;
  }

type stats = {
  connections : int;
  active_connections : int;
  requests : int;
  replies_ok : int;
  cache_hits : int;
  inline : int;
  replies_failed : int;
  shed_queue_full : int;
  shed_draining : int;
  proto_errors : int;
  cache : Memo.stats;
  supervisor : Supervisor.stats;
}

(* One connection, made at accept.  It has at most one conversion in
   flight, since its thread waits for each reply before it reads on, so
   one waiter serves all its requests: the thread sleeps on [ready]
   under [core.m], and the supervisor domain that emits the reply (its
   [lineno] is [id]) posts it into [reply]. *)
type conn = {
  id : int;
  fd : Unix.file_descr;
  ready : Condition.t;
  mutable reply : Supervisor.reply option;
}
[@@lint.guarded_by "m"]

type phase = Running | Draining | Drained

(* Request routing and accounting, shared between connection threads,
   the accept thread and the supervisor domains that emit replies. *)
type core = {
  m : Mutex.t;
  cv : Condition.t;  (** drain's last release / conns_active / phase *)
  clients : (int, conn) Hashtbl.t;  (** open connections, by id *)
  mutable phase : phase;
  mutable in_flight : int;  (** admitted, reply not yet written *)
  mutable queued : int;  (** admitted to the pool, reply not yet back *)
  mutable conns_total : int;
  mutable conns_active : int;
  mutable n_requests : int;
  mutable n_ok : int;
  mutable n_cache_hits : int;
  mutable n_inline : int;
  mutable n_failed : int;
  mutable n_shed_full : int;
  mutable n_shed_drain : int;
  mutable n_proto : int;
}
[@@lint.guarded_by "m"]

type t = {
  cfg : config;
  spec : Addr.t;
  core : core;
  sock : Unix.file_descr;
  addr_str : string;
  tcp_port : int option;
  sup : Supervisor.t;
  inline : string -> string option;
  memo : Memo.t option;
  started : float;  (** wall-clock start time, for uptime reporting *)
  stop : bool Atomic.t;  (** drain request flag; async-signal-safe *)
}

(* Daemon protocol/build version, reported in STATS. *)
let version = "1.0.0"

let m_latency =
  Telemetry.Metrics.histogram
    ~help:"Conversion request latency in microseconds, admission to reply."
    ~bounds:(Telemetry.Metrics.log_linear ~lo:10 ~hi:1_000_000 ())
    "bdprintd_request_latency_us"

let m_shed =
  Telemetry.Metrics.counter
    ~help:"Requests answered SHED (admission queue full or draining)."
    "bdprintd_shed_total"

let m_connections =
  Telemetry.Metrics.counter ~help:"Connections accepted."
    "bdprintd_connections_total"

let m_proto_errors =
  Telemetry.Metrics.counter
    ~help:"Malformed frames answered ERR proto." "bdprintd_proto_errors_total"

(* {2 Socket helpers} *)

(* The two write-path fault points: [net.slow-client] stalls before the
   write (a client not keeping up), [net.partial-write] splits it into
   two short writes — exercising the peer's reassembly of a reply. *)
let write_all fd s =
  let len = String.length s in
  if Faults.fires "net.slow-client" then Thread.delay 0.002;
  if len > 1 && Faults.fires "net.partial-write" then begin
    let half = len / 2 in
    Line_reader.write fd s 0 half;
    Thread.delay 0.001;
    Line_reader.write fd s half (len - half)
  end
  else Line_reader.write fd s 0 len

(* {2 Reply routing} *)

(* Supervisor [emit]: runs on the worker or watchdog domain that
   delivered the reply, possibly on several at once; must not raise.
   The reply's [lineno] names its connection. *)
let route_reply core (r : Supervisor.reply) =
  Mutex.lock core.m;
  let conn = Hashtbl.find_opt core.clients r.Supervisor.lineno in
  (match conn with Some conn -> conn.reply <- Some r | None -> ());
  Mutex.unlock core.m;
  (* after the unlock, so the woken thread does not wait for [core.m] *)
  match conn with Some conn -> Condition.signal conn.ready | None -> ()

(* The connection's reply, once posted; called with [core.m] held. *)
let rec await core conn =
  match conn.reply with
  | Some r ->
    conn.reply <- None;
    r
  | None ->
    Condition.wait conn.ready core.m;
    await core conn

(* A shed carries its reason only: a client retries [queue-full] on its
   own backoff and fails over from [draining]. *)
let shed reason =
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr m_shed;
  if Telemetry.Flight.enabled () then Telemetry.Flight.record ~kind:"shed" reason;
  Wire.Shed reason

let shed_drain c =
  c.n_shed_drain <- c.n_shed_drain + 1;
  shed "draining"

let shed_full c =
  c.n_shed_full <- c.n_shed_full + 1;
  shed "queue-full"

(* What a request holds while its reply is written: nothing (a shed or
   a memo hit), or an admission slot on one of the two routes. *)
type slot = No_slot | Inline_slot | Pool_slot

(* A request leaves flight; called with [core.m] held.  Only
   [finish_drain] waits for in_flight: waking [wait]'s thread on every
   reply would make it compete for [c.m] and the runtime lock. *)
let leave_flight c =
  c.in_flight <- c.in_flight - 1;
  if c.in_flight = 0 && c.phase <> Running then Condition.broadcast c.cv

(* The bignum-free route, on this connection thread, traced under the
   request's own id.  A request past its deadline goes to the pool,
   the one place that answers deadline errors: the Supervisor fails
   an expired request at dequeue without converting it. *)
let try_inline t ~t0 ~deadline_ms ~tid input =
  match deadline_ms with
  | Some d when (Unix.gettimeofday () -. t0) *. 1e3 >= float d -> None
  | Some _ | None ->
    let it0 = Telemetry.Tracing.start_for tid in
    let out = t.inline input in
    if it0 <> 0 then
      Telemetry.Tracing.finish
        ~note:(if Option.is_some out then "inline" else "declined")
        ~tid Telemetry.Tracing.Fastpath it0;
    out

(* A request the inline route declined, holding its admission slot:
   the pool's own admission bound, then the supervisor.  Only pool
   requests queue, so only they are shed queue-full. *)
let convert_pooled t conn ~deadline_ms ~tid input : Wire.reply * slot =
  let c = t.core in
  Mutex.lock c.m;
  if c.queued >= t.cfg.admission_capacity then begin
    let reply = shed_full c in
    leave_flight c;
    Mutex.unlock c.m;
    (reply, No_slot)
  end
  else begin
    c.queued <- c.queued + 1;
    Mutex.unlock c.m;
    match Supervisor.submit t.sup ?deadline_ms ~tid ~lineno:conn.id input with
    | () ->
      Mutex.lock c.m;
      let r = await c conn in
      c.queued <- c.queued - 1;
      (match r.Supervisor.outcome with
      | Supervisor.Done _ -> c.n_ok <- c.n_ok + 1
      | Supervisor.Failed _ -> c.n_failed <- c.n_failed + 1);
      Mutex.unlock c.m;
      ( (match r.Supervisor.outcome with
        | Supervisor.Done out ->
          Option.iter (fun memo -> Memo.add memo input out) t.memo;
          Wire.Converted out
        | Supervisor.Failed e ->
          Wire.Failed { cls = Error.category e; detail = Error.to_string e }),
        Pool_slot )
    | exception _ ->
      (* the supervisor refused the submission (can only happen if it
         was shut down under us, which drain's in-flight wait rules out
         — defensive, not expected) *)
      Mutex.lock c.m;
      c.queued <- c.queued - 1;
      let reply = shed_drain c in
      Mutex.unlock c.m;
      (reply, Pool_slot)
  end

(* One conversion request on [conn], through cache, admission and one
   of the two routes; [t0] is its arrival time.  Returns the reply to
   write plus the slot it holds; the caller must {!release_admission}
   only AFTER writing the reply — drain's in-flight wait keys off it,
   and releasing before the write would let drain shut the client down
   between computing a reply and delivering it (losing an accepted
   request).  A memo miss takes its slot before it converts, on either
   route, so a drain that starts mid-conversion waits for its reply;
   new requests are shed only while draining.  Never raises. *)
let convert_one t conn ~t0 ~deadline_ms ~tid input : Wire.reply * slot =
  let c = t.core in
  let mt0 = Telemetry.Tracing.start_for tid in
  let hit = Option.bind t.memo (fun memo -> Memo.find memo input) in
  Telemetry.Tracing.finish
    ~note:(if Option.is_some hit then "hit" else "miss")
    ~tid Telemetry.Tracing.Memo_lookup mt0;
  Mutex.lock c.m;
  c.n_requests <- c.n_requests + 1;
  if c.phase <> Running then begin
    let reply = shed_drain c in
    Mutex.unlock c.m;
    (reply, No_slot)
  end
  else
    match hit with
    | Some out ->
      c.n_ok <- c.n_ok + 1;
      c.n_cache_hits <- c.n_cache_hits + 1;
      Mutex.unlock c.m;
      (Wire.Converted out, No_slot)
    | None -> (
      c.in_flight <- c.in_flight + 1;
      Mutex.unlock c.m;
      match try_inline t ~t0 ~deadline_ms ~tid input with
      | Some out -> (Wire.Converted out, Inline_slot)
      | None -> convert_pooled t conn ~deadline_ms ~tid input)

(* An inline answer is counted here, after its write, in the section
   that frees its slot. *)
let release_admission t slot =
  let c = t.core in
  Mutex.lock c.m;
  if slot = Inline_slot then begin
    c.n_ok <- c.n_ok + 1;
    c.n_inline <- c.n_inline + 1
  end;
  leave_flight c;
  Mutex.unlock c.m

let timed_convert t conn ~deadline_ms ~tid input =
  let t0 = Unix.gettimeofday () in
  let reply = convert_one t conn ~t0 ~deadline_ms ~tid input in
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.observe_ex m_latency ~trace_id:tid
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  reply

(* Write a conversion reply, then release its admission slot (write
   failures to a vanished client release too — the reply was produced
   and delivery attempted, which is all drain can wait for). *)
let write_conv_reply t fd ~tid (reply, slot) =
  let wt0 = Telemetry.Tracing.start_for tid in
  if slot = No_slot then write_all fd (Wire.render_reply reply)
  else
    Fun.protect
      ~finally:(fun () -> release_admission t slot)
      (fun () -> write_all fd (Wire.render_reply reply));
  Telemetry.Tracing.finish ~tid Telemetry.Tracing.Wire_write wt0

(* {2 Statistics} *)

let empty_cache_stats =
  Memo.
    {
      hits = 0;
      misses = 0;
      entries = 0;
      evictions = 0;
      insertions = 0;
      replacements = 0;
      capacity = 0;
    }

(* The Supervisor is read after [core.m] is released, so its lock never
   nests inside this one; after drain it still reports its final
   counts. *)
let stats t =
  let c = t.core in
  Mutex.lock c.m;
  let connections = c.conns_total
  and active_connections = c.conns_active
  and requests = c.n_requests
  and replies_ok = c.n_ok
  and cache_hits = c.n_cache_hits
  and inline = c.n_inline
  and replies_failed = c.n_failed
  and shed_queue_full = c.n_shed_full
  and shed_draining = c.n_shed_drain
  and proto_errors = c.n_proto in
  Mutex.unlock c.m;
  let supervisor = Supervisor.stats t.sup in
  let cache =
    match t.memo with Some memo -> Memo.stats memo | None -> empty_cache_stats
  in
  {
    connections;
    active_connections;
    requests;
    replies_ok;
    cache_hits;
    inline;
    replies_failed;
    shed_queue_full;
    shed_draining;
    proto_errors;
    cache;
    supervisor;
  }

(* Memo hit rate over all finds so far; 0. before any traffic. *)
let hit_rate (cache : Memo.stats) =
  let total = cache.Memo.hits + cache.Memo.misses in
  if total = 0 then 0. else float cache.Memo.hits /. float total

let stats_json t =
  let s = stats t in
  let b = Buffer.create 512 in
  let field name v = Printf.bprintf b "\"%s\":%d," name v in
  Buffer.add_char b '{';
  Printf.bprintf b "\"version\":\"%s\"," version;
  Printf.bprintf b "\"uptime_s\":%.3f," (Unix.gettimeofday () -. t.started);
  field "connections" s.connections;
  field "active_connections" s.active_connections;
  field "requests" s.requests;
  field "replies_ok" s.replies_ok;
  field "cache_hits" s.cache_hits;
  field "inline" s.inline;
  field "replies_failed" s.replies_failed;
  field "shed_queue_full" s.shed_queue_full;
  (* [shed_overload] and [cache_skips] are always 0: the daemon sheds
     no request for its deadline, and the memo skips no conversion.
     Both fields stay because perfbench's traced daemon run reads them. *)
  field "shed_overload" 0;
  field "shed_draining" s.shed_draining;
  field "proto_errors" s.proto_errors;
  field "cache_skips" 0;
  field "cache_entries" s.cache.Memo.entries;
  field "cache_misses" s.cache.Memo.misses;
  field "cache_evictions" s.cache.Memo.evictions;
  field "cache_capacity" s.cache.Memo.capacity;
  Printf.bprintf b "\"cache_hit_rate\":%.3f," (hit_rate s.cache);
  field "sup_submitted" s.supervisor.Supervisor.submitted;
  field "sup_completed" s.supervisor.Supervisor.completed;
  field "sup_retries" s.supervisor.Supervisor.retries;
  field "sup_crashes" s.supervisor.Supervisor.crashes;
  field "sup_respawns" s.supervisor.Supervisor.respawns;
  field "sup_wedges" s.supervisor.Supervisor.wedges;
  field "jobs" s.supervisor.Supervisor.jobs;
  Printf.bprintf b "\"draining\":%b" (Atomic.get t.stop);
  Buffer.add_char b '}';
  Buffer.contents b

(* {2 Connection handling} *)

let proto_error t fd reason =
  let c = t.core in
  Mutex.lock c.m;
  c.n_proto <- c.n_proto + 1;
  Mutex.unlock c.m;
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr m_proto_errors;
  write_all fd (Wire.render_reply (Wire.Failed { cls = "proto"; detail = reason }))

(* The trace id a conversion runs under: the wire TID when the client
   is tracing (so both processes' spans share a track), else a locally
   sampled id when this daemon traces on its own. *)
let conv_tid ~wire_tid =
  if wire_tid <> 0 then wire_tid else Telemetry.Tracing.sample ()

let handle_request t conn deadline_ms quit req =
  let fd = conn.fd in
  match req with
  | Wire.Conv { input; tid = wire_tid } ->
    let tid = conv_tid ~wire_tid in
    let rt0 = Telemetry.Tracing.start_for tid in
    write_conv_reply t fd ~tid
      (timed_convert t conn ~deadline_ms:!deadline_ms ~tid input);
    Telemetry.Tracing.finish ~tid Telemetry.Tracing.Request rt0
  | Wire.Deadline ms ->
    deadline_ms := (if ms = 0 then None else Some ms);
    write_all fd (Wire.render_reply (Wire.Converted (Printf.sprintf "deadline=%d" ms)))
  | Wire.Ping -> write_all fd (Wire.render_reply Wire.Pong)
  | Wire.Stats ->
    write_all fd
      (Wire.render_reply (Wire.Payload { verb = "STATS"; body = stats_json t }))
  | Wire.Metrics ->
    let body = Telemetry.Snapshot.to_prometheus (Telemetry.Snapshot.take ()) in
    write_all fd (Wire.render_reply (Wire.Payload { verb = "METRICS"; body }))
  | Wire.Trace_dump ->
    let body = Telemetry.Tracing.to_chrome_json () in
    write_all fd (Wire.render_reply (Wire.Payload { verb = "TRACE"; body }))
  | Wire.Quit ->
    write_all fd (Wire.render_reply Wire.Bye);
    quit := true

let handle_conn t conn =
  let c = t.core and fd = conn.fd in
  let reader = Line_reader.create fd in
  let deadline_ms = ref t.cfg.default_deadline_ms in
  let quit = ref false in
  (try
     while not !quit do
       match Line_reader.read reader with
       | Line_reader.Interrupted -> ()
       | Line line -> (
         match Wire.parse_request line with
         | Error reason -> proto_error t fd reason
         | Ok req -> handle_request t conn deadline_ms quit req)
       | Too_long { terminated = true; _ } -> proto_error t fd "frame-too-long"
       | Last _ | Too_long { terminated = false; _ } | Eof ->
         (* an unterminated final frame never completed: drop it *)
         quit := true
     done
   with _ ->
     (* a write to a vanished client (EPIPE/ECONNRESET): drop the
        connection; all accounting already happened reply-side *)
     ());
  Mutex.lock c.m;
  Hashtbl.remove c.clients conn.id;
  c.conns_active <- c.conns_active - 1;
  Condition.broadcast c.cv;
  Mutex.unlock c.m;
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* {2 Accept loop and drain} *)

let finish_drain t =
  let c = t.core in
  Mutex.lock c.m;
  c.phase <- Draining;
  Mutex.unlock c.m;
  (try Unix.close t.sock with Unix.Unix_error (_, _, _) -> ());
  (match t.spec with
  | Addr.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | Addr.Tcp _ -> ());
  (* every admitted request must be answered before the pool stops *)
  Mutex.lock c.m;
  while c.in_flight > 0 do
    Condition.wait c.cv c.m
  done;
  Mutex.unlock c.m;
  ignore (Supervisor.shutdown t.sup : Supervisor.stats);
  (* the last step: [wait] returns once it sees [Drained] *)
  Mutex.lock c.m;
  c.phase <- Drained;
  (* wake connection threads blocked in read: close() alone would not *)
  Hashtbl.iter
    (fun _ conn ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error (_, _, _) -> ())
    c.clients;
  Condition.broadcast c.cv;
  Mutex.unlock c.m

let rec accept_loop t =
  if Atomic.get t.stop then finish_drain t
  else begin
    (match Unix.select [ t.sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true t.sock with
      | fd, _ ->
        let c = t.core in
        Mutex.lock c.m;
        let conn =
          { id = c.conns_total; fd; ready = Condition.create (); reply = None }
        in
        c.conns_total <- c.conns_total + 1;
        c.conns_active <- c.conns_active + 1;
        Hashtbl.replace c.clients conn.id conn;
        Mutex.unlock c.m;
        if Telemetry.Metrics.enabled () then
          Telemetry.Metrics.incr m_connections;
        ignore (Thread.create (fun () -> handle_conn t conn) ())
      | exception Unix.Unix_error (_, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

(* {2 Lifecycle} *)

let drain t = Atomic.set t.stop true

let wait t =
  let c = t.core in
  Mutex.lock c.m;
  while not (c.phase = Drained && c.conns_active = 0) do
    Condition.wait c.cv c.m
  done;
  Mutex.unlock c.m;
  stats t

let address t = t.addr_str
let port t = t.tcp_port

let listen_on addr =
  let sock =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  (try
     (match addr with
     | Unix.ADDR_INET _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
     | Unix.ADDR_UNIX _ -> ());
     Unix.bind sock addr;
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
     (raise e) [@lint.can_raise Unix_error]);
  sock

let start ?(config = default_config) ~inline ~convert spec =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* before the bind, so a refused config leaves no socket behind *)
  if config.jobs < 1 || config.jobs > Supervisor.max_jobs then
    Result.Error
      (Error.range ~what:"jobs"
         (Printf.sprintf "%d not in 1..%d" config.jobs Supervisor.max_jobs))
  else if config.admission_capacity < 1 then
    Result.Error
      (Error.range ~what:"admission capacity"
         (Printf.sprintf "%d < 1" config.admission_capacity))
  else
  match Result.map listen_on (Addr.sockaddr spec) with
  | exception Unix.Unix_error (err, fn, arg) ->
    Result.Error
      (Error.internal ~where:"net.server"
         (Printf.sprintf "cannot listen: %s(%s): %s" fn arg
            (Unix.error_message err)))
  | Result.Error msg -> Result.Error (Error.internal ~where:"net.server" msg)
  | Result.Ok sock ->
    let addr_str, tcp_port =
      match Unix.getsockname sock with
      | Unix.ADDR_UNIX p -> (p, None)
      | Unix.ADDR_INET (a, p) ->
        (Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p, Some p)
    in
    let core =
      {
        m = Mutex.create ();
        cv = Condition.create ();
        clients = Hashtbl.create 16;
        phase = Running;
        in_flight = 0;
        queued = 0;
        conns_total = 0;
        conns_active = 0;
        n_requests = 0;
        n_ok = 0;
        n_cache_hits = 0;
        n_inline = 0;
        n_failed = 0;
        n_shed_full = 0;
        n_shed_drain = 0;
        n_proto = 0;
      }
    in
    let sup =
      Supervisor.start ~jobs:config.jobs
        ~queue_capacity:config.admission_capacity
        ?watchdog:config.watchdog
        ~emit:(route_reply core) convert
    in
    let memo =
      if config.cache_capacity > 0 then
        Some (Memo.create ~capacity:config.cache_capacity)
      else None
    in
    let t =
      {
        cfg = config;
        spec;
        core;
        sock;
        addr_str;
        tcp_port;
        sup;
        inline;
        memo;
        started = Unix.gettimeofday ();
        stop = Atomic.make false;
      }
    in
    ignore (Thread.create (fun () -> accept_loop t) () : Thread.t);
    Result.Ok t
