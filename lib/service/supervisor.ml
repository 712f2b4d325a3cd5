module Error = Robust.Error
module Budget = Robust.Budget
module Faults = Robust.Faults

type retry_policy = {
  max_retries : int;
  backoff_ms : float;
  backoff_multiplier : float;
  backoff_cap_ms : float;
}

let default_retry =
  { max_retries = 4; backoff_ms = 1.0; backoff_multiplier = 2.0; backoff_cap_ms = 50.0 }

type watchdog_policy = { poll_ms : int; grace_ms : int; stuck_ms : int }

let default_watchdog = { poll_ms = 20; grace_ms = 100; stuck_ms = 10_000 }

type outcome = Done of string | Failed of Error.t

type reply = { lineno : int; input : string; outcome : outcome; attempts : int }

type stats = {
  submitted : int;
  completed : int;
  succeeded : int;
  retries : int;
  syntax_failures : int;
  range_failures : int;
  budget_failures : int;
  internal_failures : int;
  crashes : int;
  respawns : int;
  wedges : int;
  max_in_flight : int;
  capacity : int;
  jobs : int;
}

(* Service metrics are recorded unconditionally: one atomic op per
   reply, dwarfed by the conversion itself, and the service snapshot is
   the primary [--stats]/[--metrics] payload. *)
let m_retries =
  Telemetry.Metrics.counter
    ~help:"Retry attempts across all requests (attempts beyond the first)."
    "bdprint_service_retries_total"

let m_deadline_misses =
  Telemetry.Metrics.counter
    ~help:"Requests failed with a structured deadline-timeout error."
    "bdprint_service_deadline_misses_total"

let g_queue_depth =
  Telemetry.Metrics.gauge
    ~help:"Requests currently in flight (submitted but not yet answered)."
    "bdprint_service_queue_depth"

let g_max_in_flight =
  Telemetry.Metrics.gauge
    ~help:"High-water mark of in-flight requests."
    "bdprint_service_max_in_flight"

let m_crashes =
  Telemetry.Metrics.counter
    ~help:"Worker-domain crashes: exceptions that escaped a worker loop \
           (e.g. an injected service.worker-kill fault)."
    "bdprint_service_worker_crashes_total"

let m_respawns =
  Telemetry.Metrics.counter
    ~help:"Worker domains automatically respawned after a crash."
    "bdprint_service_worker_respawns_total"

let m_wedges =
  Telemetry.Metrics.counter
    ~help:"Live-but-wedged workers detected by the watchdog: the stuck \
           request was answered with a structured timeout and the worker \
           abandoned and replaced."
    "bdprint_service_worker_wedges_total"

let worker_counter name help i =
  (Telemetry.Metrics.counter
     ~labels:[ ("worker", string_of_int i) ]
     ~help name)
  [@lint.can_raise
    Invalid_argument
    (* registry name validation: the names are static literals, so a
       failure is a programming error that should abort startup *)]

type worker_metrics = {
  mw_processed : Telemetry.Metrics.counter;
  mw_retried : Telemetry.Metrics.counter;
}

let worker_metrics i =
  {
    mw_processed =
      worker_counter "bdprint_service_worker_processed_total"
        "Replies produced per worker domain." i;
    mw_retried =
      worker_counter "bdprint_service_worker_retried_total"
        "Requests that needed at least one retry, per worker domain." i;
  }

(* One request from [submit] until its reply is delivered.  The job is
   fixed at submit; [started], [crashed] and [reply] are written under
   [t.m]: [started] when a worker takes the job, [crashed] when a
   worker dies holding it, and [reply] once one is delivered.  Only the
   worker holding the job and the watchdog deliver, so a reply already
   there when the worker delivers is the cancelled flag: the watchdog
   answered in the wedged worker's place, and the worker drops its late
   reply and exits instead of looping. *)
type slot = {
  seq : int;
  job_lineno : int;
  job_input : string;
  deadline : Budget.deadline option;
  job_tid : int;  (* trace id (0 = untraced); see Telemetry.Tracing *)
  job_t0 : int;  (* queue-wait span token captured at submit *)
  mutable started : float;
  mutable crashed : int;  (* runs its workers died in *)
  mutable reply : reply option;
}
[@@lint.guarded_by "m"]

(* A request is in flight from [submit] until its reply is delivered:
   first in [queue], where workers wait on [work], then in [running] at
   the index of the worker that took it, the watchdog's heartbeat.
   [submit] waits on [room] while [capacity] are in flight. *)
type t = {
  jobs : int;
  capacity : int;
  convert : string -> (string, Error.t) result;
  retry : retry_policy;
  emit : reply -> unit;
  budget : Budget.t;
  m : Mutex.t;
  work : Condition.t;  (** [queue] gained a job, or the service closed *)
  room : Condition.t;  (** a request left flight, or the service closed *)
  queue : slot Queue.t;
  running : slot option array;  (** per worker: the request it holds *)
  mutable submitted : int;
  mutable completed : int;  (** requests whose reply was delivered *)
  mutable closed : bool;
  mutable max_in_flight : int;
  mutable succeeded_n : int;
  mutable retries_n : int;
  mutable fail_syntax : int;
  mutable fail_range : int;
  mutable fail_budget : int;
  mutable fail_internal : int;
  mutable crashes_n : int;
  mutable respawns_n : int;
  mutable wedges_n : int;
  wd_stop : bool Atomic.t;
  w_metrics : worker_metrics array;
  mutable workers : unit Domain.t list;
  mutable wd_domain : unit Domain.t option;
}
[@@lint.guarded_by "m"]

(* The injected worker-domain kill switch (armed via BDPRINT_FAULTS as
   service.worker-kill).  It deliberately raises *outside* every
   [Error.catch] region so the exception escapes the worker loop and
   genuinely terminates the domain — exercising crash detection and
   respawn, not the structured-error path. *)
exception Worker_killed

let kill_point = "service.worker-kill"

(* No exception may escape a worker: re-guard the user's convert even
   though the public conversion APIs are already result-returning. *)
let run_convert t input =
  match Error.catch (fun () -> t.convert input) with
  | Ok r -> r
  | Error e -> Error e

let remaining_s = function
  | None -> infinity
  | Some (d : Budget.deadline) -> d.Budget.expires_at -. Unix.gettimeofday ()

(* Supervised execution of one request: cooperative deadline,
   capped-exponential retry for Internal-class failures.  Returns the
   outcome and the number of convert attempts made. *)
let process t (s : slot) =
  Budget.set t.budget;
  Budget.set_deadline s.deadline;
  Fun.protect ~finally:(fun () -> Budget.set_deadline None) @@ fun () ->
  let rec attempt n backoff =
    match s.deadline with
    | Some d when Budget.expired d -> (Failed (Budget.deadline_error d), n)
    | _ -> (
      match run_convert t s.job_input with
      | Ok out -> (Done out, n + 1)
      | Error (Error.Internal _) when n < t.retry.max_retries ->
        let pause = Float.min (backoff /. 1000.) (remaining_s s.deadline) in
        if pause > 0. then Unix.sleepf pause;
        attempt (n + 1)
          (Float.min
             (backoff *. t.retry.backoff_multiplier)
             t.retry.backoff_cap_ms)
      | Error e ->
        (* Syntax/Range/Budget fail fast: the pipeline did its job; an
           Internal failure gets here once the retries are spent *)
        (Failed e, n + 1))
  in
  attempt 0 t.retry.backoff_ms

(* The reply, with its accounting; called with [t.m] held.  The
   request leaves flight here: its worker's heartbeat clears and one
   waiting [submit] may proceed.  [attempts] counts this run's convert
   calls, and each earlier run a worker died in adds one. *)
let deliver_locked t ~worker (s : slot) outcome ~attempts =
  let reply =
    {
      lineno = s.job_lineno;
      input = s.job_input;
      outcome;
      attempts = s.crashed + attempts;
    }
  in
  let wm = t.w_metrics.(worker) in
  Telemetry.Metrics.incr wm.mw_processed;
  s.reply <- Some reply;
  t.running.(worker) <- None;
  t.completed <- t.completed + 1;
  Telemetry.Metrics.set_gauge g_queue_depth (t.submitted - t.completed);
  (match outcome with
  | Done _ -> t.succeeded_n <- t.succeeded_n + 1
  | Failed e -> (
    match e with
    | Error.Syntax _ -> t.fail_syntax <- t.fail_syntax + 1
    | Error.Range _ -> t.fail_range <- t.fail_range + 1
    | Error.Budget { what; _ } ->
      t.fail_budget <- t.fail_budget + 1;
      if String.equal what Budget.deadline_what then
        Telemetry.Metrics.incr m_deadline_misses
    | Error.Internal _ -> t.fail_internal <- t.fail_internal + 1));
  if reply.attempts > 1 then begin
    t.retries_n <- t.retries_n + (reply.attempts - 1);
    Telemetry.Metrics.incr wm.mw_retried;
    (Telemetry.Metrics.add m_retries (reply.attempts - 1))
    [@lint.can_raise
      Invalid_argument (* attempts > 1 on this branch: the delta is positive *)]
  end;
  reply

(* Hands a delivered reply to [emit], without [t.m].  A raising [emit]
   breaks its contract: drop the exception, so no caller's crash
   handler sees it. *)
let emit t reply = match t.emit reply with () -> () | exception _ -> ()

(* Delivers a worker's reply and emits it — unless the watchdog already
   answered the request, in which case the late reply is dropped and
   [deliver] returns [false]: the abandoned worker must exit instead of
   looping, since its replacement is already running and owns its
   heartbeat. *)
let deliver t ~worker (s : slot) outcome ~attempts =
  Mutex.lock t.m;
  let reply =
    if Option.is_none s.reply then
      Some (deliver_locked t ~worker s outcome ~attempts)
    else None
  in
  Mutex.unlock t.m;
  match reply with
  | Some reply ->
    Condition.signal t.room;
    emit t reply;
    true
  | None -> false

(* The next queued request, with its heartbeat set; [None] once the
   service is shut down and the queue is empty. *)
let take t ~worker =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work t.m
  done;
  let next = Queue.take_opt t.queue in
  (match next with
  | Some s ->
    s.started <- Unix.gettimeofday ();
    t.running.(worker) <- Some s
  | None -> ());
  Mutex.unlock t.m;
  next

(* The injected live-but-wedged worker (service.worker-wedge): holds the
   dequeued request without progressing for far longer than any test
   deadline, but in bounded slices so shutdown can always join the
   domain.  The watchdog — not this sleep ending — is what answers the
   request. *)
let wedge_point = "service.worker-wedge"

let wedge_stall () =
  for _ = 1 to 40 do
    Unix.sleepf 0.01
  done

(* Worker crash with a request in hand.  A conversion is pure, so the
   dying worker puts the request back on the queue, where the
   replacement or any other worker runs it again; its heartbeat clears
   first, so the watchdog never charges it to the replacement, and it
   stays in flight throughout.  Its [max_retries + 1]th death answers
   it [Failed (Internal _)] instead.  Then the exception goes on killing
   the domain, and [worker_body] respawns a replacement.  If the
   watchdog cancelled the request first, its reply is already delivered
   and a replacement already running: return, so the worker dies
   quietly instead, or the pool would grow by one domain per
   wedge-then-crash. *)
let crash t ~worker (s : slot) exn =
  Mutex.lock t.m;
  let live = Option.is_none s.reply in
  let failed =
    if not live then None
    else begin
      t.crashes_n <- t.crashes_n + 1;
      s.crashed <- s.crashed + 1;
      (* under [t.m], so the crash precedes the re-run's service-start *)
      if Telemetry.Flight.enabled () then
        Telemetry.Flight.record ~req:s.seq ~kind:"crash"
          (Printf.sprintf "worker=%d exn=%s input=%s" worker
             (Printexc.to_string exn) s.job_input);
      if s.crashed > t.retry.max_retries then
        Some
          (deliver_locked t ~worker s
             (Failed
                (Error.internal ~where:"service.supervisor"
                   (Printf.sprintf "worker died %d times running the request"
                      s.crashed)))
             ~attempts:0)
      else begin
        t.running.(worker) <- None;
        Queue.push s t.queue;
        None
      end
    end
  in
  Mutex.unlock t.m;
  if live then begin
    (match failed with
    | Some reply ->
      Condition.signal t.room;
      emit t reply
    | None -> Condition.signal t.work);
    Telemetry.Metrics.incr m_crashes;
    (* the post-mortem, with the crash event that names the request:
       dump every ring before the domain unwinds *)
    if Telemetry.Flight.enabled () then
      Telemetry.Flight.dump ~reason:"worker-crash";
    (raise exn) [@lint.can_raise Worker_killed]
  end

let rec worker_loop t ~worker =
  match take t ~worker with
  | None -> ()
  | Some s -> (
    (* the queue-wait span closes at dequeue; the worker then adopts
       the job's trace id so the pipeline spans inside [process] land
       on the request's trace *)
    Telemetry.Tracing.adopt s.job_tid;
    Telemetry.Tracing.finish ~tid:s.job_tid Telemetry.Tracing.Queue_wait
      s.job_t0;
    if Telemetry.Flight.enabled () then
      Telemetry.Flight.record ~req:s.seq ~kind:"service-start"
        (Printf.sprintf "worker=%d input=%s" worker s.job_input);
    let reply =
      try
        if Faults.fires kill_point then raise Worker_killed;
        if Faults.fires wedge_point then wedge_stall ();
        let st0 = Telemetry.Tracing.start () in
        let outcome, attempts = process t s in
        Telemetry.Tracing.finish Telemetry.Tracing.Worker_service st0;
        if Telemetry.Flight.enabled () then
          Telemetry.Flight.record ~req:s.seq ~kind:"service-end"
            (match outcome with
            | Done _ -> "ok"
            | Failed e -> "failed " ^ Error.category e);
        Telemetry.Tracing.adopt 0;
        Some (outcome, attempts)
      with exn ->
        crash t ~worker s exn;
        None
    in
    (* outside the crash handler: [emit] never re-enters it *)
    match reply with
    | Some (outcome, attempts) when deliver t ~worker s outcome ~attempts ->
      worker_loop t ~worker
    | Some _ | None -> ())

(* Each worker domain runs under this wrapper: an escaping exception is
   a domain death.  The dying domain spawns and registers its
   replacement before the body returns, so shutdown's
   generation-joining loop is guaranteed to observe the new domain. *)
let rec worker_body t ~worker () =
  try worker_loop t ~worker with _ -> respawn t ~worker

and respawn t ~worker =
  let d = Domain.spawn (worker_body t ~worker) in
  Mutex.lock t.m;
  t.respawns_n <- t.respawns_n + 1;
  t.workers <- d :: t.workers;
  Mutex.unlock t.m;
  Telemetry.Metrics.incr m_respawns

(* {2 Watchdog} *)

(* A request is wedged when a worker still holds it (the crash path
   would have answered or re-queued it) past its deadline plus
   [grace_ms], or past [stuck_ms] when it carries no deadline.  OCaml
   domains cannot be killed, so "cancel" means: answer the request with
   a structured timeout in the worker's place (the reply in the slot
   makes the worker drop its own late one and exit on wake), and spawn
   a replacement so the pool never shrinks. *)
let wedged now (p : watchdog_policy) (s : slot) =
  match s.deadline with
  | Some d -> now > d.Budget.expires_at +. (float p.grace_ms /. 1000.)
  | None -> now -. s.started > float p.stuck_ms /. 1000.

let wedge_error (s : slot) =
  match s.deadline with
  | Some d -> Budget.deadline_error d
  | None ->
    Error.internal ~where:"service.watchdog"
      "request abandoned: worker wedged past the stuck threshold"

let rec watchdog_loop t (p : watchdog_policy) =
  if not (Atomic.get t.wd_stop) then begin
    let now = Unix.gettimeofday () in
    Mutex.lock t.m;
    let victims = ref [] in
    Array.iteri
      (fun worker -> function
        | Some s when wedged now p s ->
          t.wedges_n <- t.wedges_n + 1;
          Telemetry.Metrics.incr m_wedges;
          if Telemetry.Flight.enabled () then
            Telemetry.Flight.record ~req:s.seq ~kind:"wedge"
              (Printf.sprintf "worker=%d held-s=%.3f input=%s" worker
                 (now -. s.started) s.job_input);
          let reply =
            deliver_locked t ~worker s (Failed (wedge_error s)) ~attempts:0
          in
          victims := (worker, reply) :: !victims
        | Some _ | None -> ())
      t.running;
    Mutex.unlock t.m;
    if !victims <> [] then begin
      Condition.broadcast t.room;
      List.iter (fun (_, reply) -> emit t reply) !victims;
      (* the dump does file I/O: after the lock, before the respawns, so
         the recording that names the wedged request is already on disk
         if a respawn itself goes wrong *)
      if Telemetry.Flight.enabled () then
        Telemetry.Flight.dump ~reason:"worker-wedge";
      (* replacements outside the lock: Domain.spawn is heavyweight *)
      List.iter (fun (worker, _) -> respawn t ~worker) !victims
    end;
    Unix.sleepf (float p.poll_ms /. 1000.);
    watchdog_loop t p
  end

let start ?(jobs = 2) ?(queue_capacity = 64) ?(retry = default_retry)
    ?watchdog ~emit convert =
  (* documented preconditions: misconfiguration is a programming error,
     not a per-request failure, so it raises rather than returns *)
  (if jobs < 1 then invalid_arg "Supervisor.start: jobs < 1")
  [@lint.can_raise Invalid_argument];
  (if queue_capacity < 1 then invalid_arg "Supervisor.start: queue_capacity < 1")
  [@lint.can_raise Invalid_argument];
  (if retry.max_retries < 0 then invalid_arg "Supervisor.start: max_retries < 0")
  [@lint.can_raise Invalid_argument];
  let t =
    {
      jobs;
      capacity = queue_capacity;
      convert;
      retry;
      emit;
      budget = Budget.get ();
      m = Mutex.create ();
      work = Condition.create ();
      room = Condition.create ();
      queue = Queue.create ();
      running = Array.make jobs None;
      submitted = 0;
      completed = 0;
      closed = false;
      max_in_flight = 0;
      succeeded_n = 0;
      retries_n = 0;
      fail_syntax = 0;
      fail_range = 0;
      fail_budget = 0;
      fail_internal = 0;
      crashes_n = 0;
      respawns_n = 0;
      wedges_n = 0;
      wd_stop = Atomic.make false;
      w_metrics = Array.init jobs worker_metrics;
      workers = [];
      wd_domain = None;
    }
  in
  t.workers <-
    List.init jobs (fun i -> Domain.spawn (worker_body t ~worker:i));
  (match watchdog with
  | Some p when p.poll_ms >= 1 ->
    t.wd_domain <- Some (Domain.spawn (fun () -> watchdog_loop t p))
  | _ -> ());
  t

let submit t ?deadline_ms ?(tid = 0) ~lineno input =
  Mutex.lock t.m;
  while (not t.closed) && t.submitted - t.completed >= t.capacity do
    Condition.wait t.room t.m
  done;
  if t.closed then begin
    Mutex.unlock t.m;
    (invalid_arg "Supervisor.submit: service is shut down")
    [@lint.can_raise Invalid_argument] (* documented: submit-after-shutdown is a caller bug *)
  end;
  let seq = t.submitted in
  (* the deadline runs from admission; the queue-wait span opens here,
     on the submitting thread, and the dequeuing worker closes it *)
  let s =
    {
      seq;
      job_lineno = lineno;
      job_input = input;
      deadline = Option.map (fun ms -> Budget.deadline_after ~ms) deadline_ms;
      job_tid = tid;
      job_t0 = Telemetry.Tracing.start_for tid;
      started = 0.;
      crashed = 0;
      reply = None;
    }
  in
  t.submitted <- seq + 1;
  Queue.push s t.queue;
  let in_flight = t.submitted - t.completed in
  if in_flight > t.max_in_flight then t.max_in_flight <- in_flight;
  Telemetry.Metrics.set_gauge g_queue_depth in_flight;
  Telemetry.Metrics.max_gauge g_max_in_flight in_flight;
  (* under [t.m], so the admit precedes the request's service-start *)
  if Telemetry.Flight.enabled () then
    Telemetry.Flight.record ~req:seq ~kind:"admit" input;
  Mutex.unlock t.m;
  (* after the unlock, so the woken worker does not wait for [t.m] *)
  Condition.signal t.work

let stats t =
  Mutex.lock t.m;
  let s =
    {
      submitted = t.submitted;
      completed = t.completed;
      succeeded = t.succeeded_n;
      retries = t.retries_n;
      syntax_failures = t.fail_syntax;
      range_failures = t.fail_range;
      budget_failures = t.fail_budget;
      internal_failures = t.fail_internal;
      crashes = t.crashes_n;
      respawns = t.respawns_n;
      wedges = t.wedges_n;
      max_in_flight = t.max_in_flight;
      capacity = t.capacity;
      jobs = t.jobs;
    }
  in
  Mutex.unlock t.m;
  s

let shutdown t =
  Mutex.lock t.m;
  let already = t.closed in
  t.closed <- true;
  (* workers drain the queue before they see it closed; a [submit]
     waiting for room gives up *)
  Condition.broadcast t.work;
  Condition.broadcast t.room;
  Mutex.unlock t.m;
  if not already then begin
    (* stop the watchdog first: a cancellation after the generation-join
       below would spawn a replacement no one joins *)
    Atomic.set t.wd_stop true;
    Option.iter Domain.join t.wd_domain;
    t.wd_domain <- None;
    (* Workers can crash and respawn while draining, so join by
       generations until no unjoined domain remains: a dying domain
       re-queues its request and registers its replacement before it
       exits, so once a join returns, any replacement it spawned is
       already visible, and it runs what was re-queued. *)
    let rec join_workers joined =
      Mutex.lock t.m;
      let current = t.workers in
      Mutex.unlock t.m;
      match List.filter (fun d -> not (List.memq d joined)) current with
      | [] -> ()
      | fresh ->
        List.iter Domain.join fresh;
        join_workers (fresh @ joined)
    in
    join_workers [];
    (* every job was delivered, and every deliverer emitted its reply
       before it took another job or exited: nothing else to join *)
    t.workers <- []
  end;
  stats t
