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

type outcome = Done of string | Degraded of string | Failed of Error.t

type reply = { lineno : int; input : string; outcome : outcome; attempts : int }

type worker_stats = {
  worker : int;
  processed : int;
  retried : int;
  degraded : int;
}

type stats = {
  submitted : int;
  completed : int;
  succeeded : int;
  degraded : int;
  retries : int;
  syntax_failures : int;
  range_failures : int;
  budget_failures : int;
  internal_failures : int;
  crashes : int;
  respawns : int;
  wedges : int;
  breaker_state : string;
  breaker_trips : int;
  max_in_flight : int;
  capacity : int;
  jobs : int;
  workers : worker_stats array;
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
    ~help:"Requests currently in flight (submitted but not yet emitted)."
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
  mw_degraded : Telemetry.Metrics.counter;
}

let worker_metrics i =
  {
    mw_processed =
      worker_counter "bdprint_service_worker_processed_total"
        "Replies produced per worker domain." i;
    mw_retried =
      worker_counter "bdprint_service_worker_retried_total"
        "Requests that needed at least one retry, per worker domain." i;
    mw_degraded =
      worker_counter "bdprint_service_worker_degraded_total"
        "Breaker-fallback (degraded) replies per worker domain." i;
  }

type job = {
  seq : int;
  job_lineno : int;
  job_input : string;
  deadline : Budget.deadline option;
  job_tid : int;  (* trace id (0 = untraced); see Telemetry.Tracing *)
  job_t0 : int;  (* queue-wait span token captured at submit *)
}

(* Heartbeat slot for one dequeued request: registered when a worker
   takes the job, removed when its reply is posted.  The watchdog scans
   these; marking [cancelled] means the watchdog has already answered
   the request and replaced the worker, so the wedged worker's eventual
   reply must be dropped and the worker must exit instead of looping. *)
type running = {
  r_job : job;
  r_worker : int;
  r_started : float;
  mutable r_cancelled : bool;
}
[@@lint.guarded_by "m"]

type t = {
  jobs : int;
  capacity : int;
  convert : string -> (string, Error.t) result;
  fallback : string -> (string, Error.t) result;
  retry : retry_policy;
  breaker : Breaker.t;
  emit : reply -> unit;
  queue : job Bqueue.t;
  slots : Semaphore.Counting.t;
  budget : Budget.t;
  m : Mutex.t;
  buffer : (int, reply) Hashtbl.t;
  mutable submitted : int;
  mutable emitted : int;
  mutable emitting : bool;  (** the emission token; see [emit_from] *)
  mutable closed : bool;
  mutable max_in_flight : int;
  mutable succeeded_n : int;
  mutable degraded_n : int;
  mutable retries_n : int;
  mutable fail_syntax : int;
  mutable fail_range : int;
  mutable fail_budget : int;
  mutable fail_internal : int;
  mutable crashes_n : int;
  mutable respawns_n : int;
  mutable wedges_n : int;
  running : (int, running) Hashtbl.t;  (** seq -> heartbeat slot *)
  wd_stop : bool Atomic.t;
  w_processed : int array;
  w_retried : int array;
  w_degraded : int array;
  w_metrics : worker_metrics array;
  mutable workers : unit Domain.t list;
  mutable wd_domain : unit Domain.t option;
}
[@@lint.guarded_by "m"]

(* The degraded path must not depend on the (presumed broken) exact
   pipeline: OCaml's own float parsing and %.17g rendering, which is
   information-preserving for binary64 if not shortest. *)
let default_fallback input =
  match float_of_string_opt (String.trim input) with
  | Some x -> Ok (Printf.sprintf "%.17g" x)
  | None -> Error (Error.syntax ~input "unparseable in degraded mode")

(* The injected worker-domain kill switch (armed via BDPRINT_FAULTS as
   service.worker-kill).  It deliberately raises *outside* every
   [Error.catch] region so the exception escapes the worker loop and
   genuinely terminates the domain — exercising crash detection and
   respawn, not the structured-error path. *)
exception Worker_killed

let kill_point = "service.worker-kill"

(* The crash reply must not depend on the worker that just died having
   been healthy: same degraded channel as the breaker fallback. *)
let crash_fallback t input =
  match Error.catch (fun () -> t.fallback input) with
  | Ok (Ok s) -> Degraded s
  | Ok (Error e) | Error e -> Failed e

(* No exception may escape a worker: re-guard the user's convert even
   though the public conversion APIs are already result-returning. *)
let run_convert t input =
  match Error.catch (fun () -> t.convert input) with
  | Ok r -> r
  | Error e -> Error e

let remaining_s = function
  | None -> infinity
  | Some (d : Budget.deadline) -> d.Budget.expires_at -. Unix.gettimeofday ()

(* Supervised execution of one request: breaker admission, cooperative
   deadline, capped-exponential retry for Internal-class failures.
   Returns the outcome and the number of convert attempts made. *)
let process t (job : job) =
  Budget.set t.budget;
  Budget.set_deadline job.deadline;
  Fun.protect ~finally:(fun () -> Budget.set_deadline None) @@ fun () ->
  let fallback_outcome () =
    match Error.catch (fun () -> t.fallback job.job_input) with
    | Ok (Ok s) -> Degraded s
    | Ok (Error e) | Error e -> Failed e
  in
  match Breaker.admit t.breaker with
  | `Fallback -> (fallback_outcome (), 0)
  | (`Proceed | `Probe) as admission ->
    let is_probe = admission = `Probe in
    let timed_out () =
      (* a timeout says nothing about pipeline health, except for the
         half-open probe, which must always resolve the breaker state *)
      if is_probe then Breaker.record_failure t.breaker
    in
    let rec attempt n backoff =
      match job.deadline with
      | Some d when Budget.expired d ->
        timed_out ();
        (Failed (Budget.deadline_error d), n)
      | _ -> (
        match run_convert t job.job_input with
        | Ok s ->
          Breaker.record_success t.breaker;
          (Done s, n + 1)
        | Error (Error.Internal _ as e) ->
          if n < t.retry.max_retries then begin
            let pause =
              Float.min (backoff /. 1000.) (remaining_s job.deadline)
            in
            if pause > 0. then Unix.sleepf pause;
            attempt (n + 1)
              (Float.min
                 (backoff *. t.retry.backoff_multiplier)
                 t.retry.backoff_cap_ms)
          end
          else begin
            Breaker.record_failure t.breaker;
            (Failed e, n + 1)
          end
        | Error e ->
          (* Syntax/Range/Budget: the pipeline did its job — fail fast,
             don't retry, don't count against the breaker *)
          Breaker.record_success t.breaker;
          (Failed e, n + 1))
    in
    attempt 0 t.retry.backoff_ms

let register_running t ~worker (job : job) =
  Mutex.lock t.m;
  Hashtbl.replace t.running job.seq
    {
      r_job = job;
      r_worker = worker;
      r_started = Unix.gettimeofday ();
      r_cancelled = false;
    };
  Mutex.unlock t.m

(* Reply accounting; called with [t.m] held. *)
let deliver_locked t ~worker (job : job) reply =
  let wm = t.w_metrics.(worker) in
  Telemetry.Metrics.incr wm.mw_processed;
  Hashtbl.replace t.buffer job.seq reply;
  t.w_processed.(worker) <- t.w_processed.(worker) + 1;
  (match reply.outcome with
  | Done _ -> t.succeeded_n <- t.succeeded_n + 1
  | Degraded _ ->
    t.degraded_n <- t.degraded_n + 1;
    t.w_degraded.(worker) <- t.w_degraded.(worker) + 1;
    Telemetry.Metrics.incr wm.mw_degraded
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
    t.w_retried.(worker) <- t.w_retried.(worker) + 1;
    Telemetry.Metrics.incr wm.mw_retried;
    (Telemetry.Metrics.add m_retries (reply.attempts - 1))
    [@lint.can_raise
      Invalid_argument (* attempts > 1 on this branch: the delta is positive *)]
  end

(* Delivers a worker's reply — unless the watchdog already cancelled the
   request (answered it with a structured timeout and replaced the
   worker), in which case the late reply is dropped and [post] returns
   [false]: the abandoned worker must exit instead of looping, since its
   replacement is already running. *)
let post t ~worker (job : job) reply =
  Mutex.lock t.m;
  let cancelled =
    match Hashtbl.find_opt t.running job.seq with
    | Some r when r.r_cancelled -> true
    | _ -> false
  in
  Hashtbl.remove t.running job.seq;
  if not cancelled then deliver_locked t ~worker job reply;
  Mutex.unlock t.m;
  not cancelled

(* Emission.  The reply the stream waits for is [buffer[emitted]].
   Whoever delivers a reply (a worker after [post], a dying worker, the
   watchdog after a wedge) then calls [emit_ready]: it takes the
   [emitting] token under [t.m] and emits every ready reply from
   [emitted] on.  A deliverer that finds the token taken leaves its
   reply to the holder, which re-reads the buffer under [t.m] before it
   lets the token go.  So [emit] runs one call at a time in submission
   order, and a slot returns after its [emit]: "in flight" covers
   submit to emit.  [~token] is true only in the recursion. *)
let rec emit_from t ~token =
  Mutex.lock t.m;
  if t.emitting && not token then Mutex.unlock t.m
  else
    match Hashtbl.find_opt t.buffer t.emitted with
    | None ->
      t.emitting <- false;
      Mutex.unlock t.m
    | Some reply ->
      t.emitting <- true;
      Hashtbl.remove t.buffer t.emitted;
      t.emitted <- t.emitted + 1;
      Telemetry.Metrics.set_gauge g_queue_depth (t.submitted - t.emitted);
      Mutex.unlock t.m;
      (* a raising [emit] breaks its contract: drop the exception, so the
         token moves on and no caller's crash handler ever sees it *)
      (match t.emit reply with () -> () | exception _ -> ());
      Semaphore.Counting.release t.slots;
      emit_from t ~token:true

let emit_ready t = emit_from t ~token:false

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

let rec worker_loop t ~worker =
  match Bqueue.take t.queue with
  | None -> ()
  | Some job ->
    register_running t ~worker job;
    (* the queue-wait span closes at dequeue; the worker then adopts
       the job's trace id so the pipeline spans inside [process] land
       on the request's trace *)
    Telemetry.Tracing.adopt job.job_tid;
    Telemetry.Tracing.finish ~tid:job.job_tid Telemetry.Tracing.Queue_wait
      job.job_t0;
    if Telemetry.Flight.enabled () then
      Telemetry.Flight.record ~req:job.seq ~kind:"service-start"
        (Printf.sprintf "worker=%d input=%s" worker job.job_input);
    let continue =
      try
        if Faults.fires kill_point then raise Worker_killed;
        if Faults.fires wedge_point then wedge_stall ();
        let st0 = Telemetry.Tracing.start () in
        let outcome, attempts = process t job in
        Telemetry.Tracing.finish Telemetry.Tracing.Worker_service st0;
        if Telemetry.Flight.enabled () then
          Telemetry.Flight.record ~req:job.seq ~kind:"service-end"
            (match outcome with
            | Done _ -> "ok"
            | Degraded _ -> "degraded"
            | Failed e -> "failed " ^ Error.category e);
        Telemetry.Tracing.adopt 0;
        post t ~worker job
          { lineno = job.job_lineno; input = job.job_input; outcome; attempts }
      with exn ->
        (* Worker crash with a request in hand.  Losing the reply would
           stall emission (every later reply waits behind this seq), so
           the dying worker answers the job through the breaker-backed
           degraded channel, records the failure against the breaker,
           and only then lets the exception continue killing the domain:
           the wrapper below emits the reply and respawns a replacement.
           If the watchdog cancelled the request first, the reply is
           already delivered and a replacement already running: die
           quietly instead, or the pool would grow by one domain per
           wedge-then-crash. *)
        Breaker.record_failure t.breaker;
        let outcome = crash_fallback t job.job_input in
        let delivered =
          post t ~worker job
            {
              lineno = job.job_lineno;
              input = job.job_input;
              outcome;
              attempts = 0;
            }
        in
        if delivered then begin
          Mutex.lock t.m;
          t.crashes_n <- t.crashes_n + 1;
          Mutex.unlock t.m;
          Telemetry.Metrics.incr m_crashes;
          (* the post-mortem: name the request the worker died holding,
             then dump every ring before the domain unwinds *)
          if Telemetry.Flight.enabled () then begin
            Telemetry.Flight.record ~req:job.seq ~kind:"crash"
              (Printf.sprintf "worker=%d exn=%s input=%s" worker
                 (Printexc.to_string exn) job.job_input);
            Telemetry.Flight.dump ~reason:"worker-crash"
          end;
          (raise exn) [@lint.can_raise Worker_killed]
        end;
        false
    in
    (* outside the crash handler: emission never re-enters it *)
    if continue then begin
      emit_ready t;
      worker_loop t ~worker
    end

(* Each worker domain runs under this wrapper: an escaping exception is
   a domain death.  The dying domain emits the crash reply it posted,
   then spawns and registers its replacement — before the body returns,
   so shutdown's generation-joining loop is guaranteed to observe the
   new domain. *)
let rec worker_body t ~worker () =
  try worker_loop t ~worker
  with _ ->
    emit_ready t;
    let d = Domain.spawn (worker_body t ~worker) in
    Mutex.lock t.m;
    t.respawns_n <- t.respawns_n + 1;
    t.workers <- d :: t.workers;
    Mutex.unlock t.m;
    Telemetry.Metrics.incr m_respawns

(* {2 Watchdog} *)

(* A request is wedged when its worker is still alive (the crash path
   would have answered it) yet it has been held past its deadline plus
   [grace_ms] — or past [stuck_ms] when it carries no deadline.  OCaml
   domains cannot be killed, so "cancel" means: answer the request with
   a structured timeout, mark the slot so the worker's eventual late
   reply is dropped and the worker exits on wake, and spawn a
   replacement so the pool never shrinks. *)
let wedged now (p : watchdog_policy) (r : running) =
  (not r.r_cancelled)
  &&
  match r.r_job.deadline with
  | Some d -> now > d.Budget.expires_at +. (float p.grace_ms /. 1000.)
  | None -> now -. r.r_started > float p.stuck_ms /. 1000.

let wedge_error (r : running) =
  match r.r_job.deadline with
  | Some d -> Budget.deadline_error d
  | None ->
    Error.internal ~where:"service.watchdog"
      "request abandoned: worker wedged past the stuck threshold"

let rec watchdog_loop t (p : watchdog_policy) =
  if not (Atomic.get t.wd_stop) then begin
    let now = Unix.gettimeofday () in
    Mutex.lock t.m;
    let victims =
      Hashtbl.fold
        (fun _ r acc -> if wedged now p r then r :: acc else acc)
        t.running []
    in
    List.iter
      (fun r ->
        r.r_cancelled <- true;
        t.wedges_n <- t.wedges_n + 1;
        Telemetry.Metrics.incr m_wedges;
        if Telemetry.Flight.enabled () then
          Telemetry.Flight.record ~req:r.r_job.seq ~kind:"wedge"
            (Printf.sprintf "worker=%d held-s=%.3f input=%s" r.r_worker
               (now -. r.r_started) r.r_job.job_input);
        deliver_locked t ~worker:r.r_worker r.r_job
          {
            lineno = r.r_job.job_lineno;
            input = r.r_job.job_input;
            outcome = Failed (wedge_error r);
            attempts = 0;
          })
      victims;
    Mutex.unlock t.m;
    if victims <> [] then emit_ready t;
    (* the dump does file I/O: after the lock, before the respawns, so
       the recording that names the wedged request is already on disk
       if a respawn itself goes wrong *)
    if victims <> [] && Telemetry.Flight.enabled () then
      Telemetry.Flight.dump ~reason:"worker-wedge";
    (* replacements outside the lock: Domain.spawn is heavyweight *)
    List.iter
      (fun r ->
        let d = Domain.spawn (worker_body t ~worker:r.r_worker) in
        Mutex.lock t.m;
        t.respawns_n <- t.respawns_n + 1;
        t.workers <- d :: t.workers;
        Mutex.unlock t.m;
        Telemetry.Metrics.incr m_respawns)
      victims;
    Unix.sleepf (float p.poll_ms /. 1000.);
    watchdog_loop t p
  end

let start ?(jobs = 2) ?(queue_capacity = 64) ?(retry = default_retry)
    ?(breaker = Breaker.default_policy) ?watchdog ?fallback ~emit convert =
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
      fallback = Option.value fallback ~default:default_fallback;
      retry;
      breaker =
        ((Breaker.create ~policy:breaker ())
         [@lint.can_raise
           Invalid_argument (* startup policy validation: abort loudly *)]);
      emit;
      queue =
        ((Bqueue.create ~capacity:queue_capacity)
         [@lint.can_raise
           Invalid_argument (* startup capacity validation: abort loudly *)]);
      slots = Semaphore.Counting.make queue_capacity;
      budget = Budget.get ();
      m = Mutex.create ();
      buffer = Hashtbl.create 64;
      submitted = 0;
      emitted = 0;
      emitting = false;
      closed = false;
      max_in_flight = 0;
      succeeded_n = 0;
      degraded_n = 0;
      retries_n = 0;
      fail_syntax = 0;
      fail_range = 0;
      fail_budget = 0;
      fail_internal = 0;
      crashes_n = 0;
      respawns_n = 0;
      wedges_n = 0;
      running = Hashtbl.create 32;
      wd_stop = Atomic.make false;
      w_processed = Array.make jobs 0;
      w_retried = Array.make jobs 0;
      w_degraded = Array.make jobs 0;
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
  Semaphore.Counting.acquire t.slots;
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    Semaphore.Counting.release t.slots;
    (invalid_arg "Supervisor.submit: service is shut down")
    [@lint.can_raise Invalid_argument] (* documented: submit-after-shutdown is a caller bug *)
  end;
  let seq = t.submitted in
  t.submitted <- seq + 1;
  let in_flight = t.submitted - t.emitted in
  if in_flight > t.max_in_flight then t.max_in_flight <- in_flight;
  Telemetry.Metrics.set_gauge g_queue_depth in_flight;
  Telemetry.Metrics.max_gauge g_max_in_flight in_flight;
  Mutex.unlock t.m;
  let deadline = Option.map (fun ms -> Budget.deadline_after ~ms) deadline_ms in
  (* the queue-wait span opens here, on the submitting thread; the
     dequeuing worker closes it *)
  let job_t0 = Telemetry.Tracing.start_for tid in
  (* the semaphore already bounds in-flight work, so this put cannot
     block; Closed can only race with a concurrent shutdown *)
  try
    Bqueue.put t.queue
      { seq; job_lineno = lineno; job_input = input; deadline;
        job_tid = tid; job_t0 }
  with Bqueue.Closed ->
    (invalid_arg "Supervisor.submit: service is shut down")
    [@lint.can_raise Invalid_argument] (* documented: submit/shutdown race is a caller bug *)

let stats t =
  Mutex.lock t.m;
  let s =
    {
      submitted = t.submitted;
      completed = t.emitted;
      succeeded = t.succeeded_n;
      degraded = t.degraded_n;
      retries = t.retries_n;
      syntax_failures = t.fail_syntax;
      range_failures = t.fail_range;
      budget_failures = t.fail_budget;
      internal_failures = t.fail_internal;
      crashes = t.crashes_n;
      respawns = t.respawns_n;
      wedges = t.wedges_n;
      breaker_state = Breaker.state_name t.breaker;
      breaker_trips = Breaker.trips t.breaker;
      max_in_flight = t.max_in_flight;
      capacity = t.capacity;
      jobs = t.jobs;
      workers =
        Array.init t.jobs (fun i ->
            {
              worker = i;
              processed = t.w_processed.(i);
              retried = t.w_retried.(i);
              degraded = t.w_degraded.(i);
            });
    }
  in
  Mutex.unlock t.m;
  s

let shutdown t =
  Mutex.lock t.m;
  let already = t.closed in
  t.closed <- true;
  Mutex.unlock t.m;
  if not already then begin
    (* stop the watchdog first: a cancellation after the generation-join
       below would spawn a replacement no one joins *)
    Atomic.set t.wd_stop true;
    Option.iter Domain.join t.wd_domain;
    t.wd_domain <- None;
    Bqueue.close t.queue;
    (* Workers can crash and respawn while draining, so join by
       generations until no unjoined domain remains: a dying domain
       registers its replacement before it exits, so once a join
       returns, any replacement it spawned is already visible. *)
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
    (* every job was posted and every poster emitted before exiting, so
       every reply has been emitted: there is nothing else to join *)
    t.workers <- []
  end;
  stats t
