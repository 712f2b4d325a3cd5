(* bdprintd: a crash-tolerant networked conversion daemon.

   Fronts the supervised conversion service (worker domains, retries,
   crash re-runs and respawn, the wedge watchdog) with the Wire
   line protocol over a Unix-domain or TCP socket: bounded admission
   with explicit SHED replies, per-connection deadlines, a bounded
   hot-value cache, and graceful drain on SIGTERM/SIGINT — accepted
   requests finish, --metrics files flush, then a clean exit 0.

   The conversion semantics are bdprint's defaults: shortest
   round-tripping decimal output for binary64, round-to-nearest-even,
   through the certified fast-path reader (Net.Conversion).  Requests
   that need no bignum are answered on the connection thread; the rest
   go to the worker pool.  See docs/SERVICE.md for the protocol. *)

open Cmdliner
module Error = Robust.Error
module Server = Net.Server

let listen_conv =
  let parse s =
    Result.map_error
      (fun e -> `Msg (Error.to_string e))
      (Net.Addr.parse ~listen:true s)
  in
  let print ppf a = Format.pp_print_string ppf (Net.Addr.to_string a) in
  Arg.conv (parse, print)

let listen_arg =
  Arg.(
    value
    & opt listen_conv (Net.Addr.Tcp ("127.0.0.1", 0))
    & info [ "l"; "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: $(b,HOST:PORT), $(b,:PORT), $(b,PORT) (TCP; port \
           0 picks an ephemeral port) or $(b,unix:PATH).")

let max_jobs = Service.Supervisor.max_jobs

let jobs_arg =
  Arg.(
    value & opt int 2
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:(Printf.sprintf "Worker domains, 1 to %d." max_jobs))

let admission_arg =
  Arg.(
    value & opt int 256
    & info [ "admission" ] ~docv:"N"
        ~doc:
          "Admission bound: maximum conversion requests in flight in the \
           worker pool; beyond it, a request the connection thread cannot \
           answer itself is answered $(b,SHED queue-full).")

let cache_arg =
  Arg.(
    value & opt int 4096
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Hot-value cache capacity in entries; 0 disables the cache.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline applied to connections that do not \
           set their own with $(b,DEADLINE).")

let stuck_ms_arg =
  Arg.(
    value
    & opt int Service.Supervisor.default_watchdog.Service.Supervisor.stuck_ms
    & info [ "stuck-ms" ] ~docv:"MS"
        ~doc:
          "Watchdog threshold for deadline-less requests: a worker still \
           busy on one request after $(docv) ms is declared wedged — the \
           request is answered with a structured timeout and the worker \
           is replaced.  Requests carrying a deadline are declared wedged \
           shortly after it expires regardless of this setting.  0 \
           disables the watchdog entirely.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print service statistics on exit (stderr).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "On exit, dump the telemetry registry as JSON to $(docv) and \
           Prometheus text to $(docv) with a .prom suffix.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable request tracing and write the sampled spans as Chrome \
           trace-event JSON to $(docv) on drain (loadable in \
           chrome://tracing or Perfetto).  One request in 64 is traced; \
           BDPRINTD_TRACE_SAMPLE=N overrides the interval.  Clients that \
           send a TID token tie their spans to the same trace; the TRACE \
           protocol verb exports the live ring without waiting for \
           drain.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Enable the flight recorder: a fixed-size in-memory ring of \
           structured events (admissions, sheds, fault trips, worker \
           service start/end, crashes and wedges).  When a worker \
           crashes or wedges, the ring is appended to $(docv) as JSONL \
           — a black-box dump identifying the poisoned request.")

let print_final_stats (s : Server.stats) =
  Printf.eprintf
    "bdprintd: served %d requests on %d connections: %d ok (%d cached, %d \
     inline), %d failed, %d shed (%d queue-full, %d draining), %d \
     protocol errors\n\
     bdprintd: workers: %d submitted, %d retries, %d crashes, %d wedges, \
     %d respawns\n\
     %!"
    s.Server.requests s.Server.connections s.Server.replies_ok
    s.Server.cache_hits s.Server.inline s.Server.replies_failed
    (s.Server.shed_queue_full + s.Server.shed_draining)
    s.Server.shed_queue_full s.Server.shed_draining
    s.Server.proto_errors s.Server.supervisor.Service.Supervisor.submitted
    s.Server.supervisor.Service.Supervisor.retries
    s.Server.supervisor.Service.Supervisor.crashes
    s.Server.supervisor.Service.Supervisor.wedges
    s.Server.supervisor.Service.Supervisor.respawns

let run listen jobs admission cache_size deadline_ms stuck_ms show_stats
    metrics_file trace_file flight_file =
  (* before the bind: Supervisor.start spawns a domain per job, and the
     runtime's domain limit would end the daemon on an exception *)
  if jobs < 1 || jobs > max_jobs then
    `Error (false, Printf.sprintf "--jobs must be between 1 and %d" max_jobs)
  else if admission < 1 then `Error (false, "--admission must be at least 1")
  else if cache_size < 0 then `Error (false, "--cache-size must be >= 0")
  else if (match deadline_ms with Some ms -> ms < 0 | None -> false) then
    `Error (false, "--deadline-ms must be >= 0")
  else if stuck_ms < 0 then `Error (false, "--stuck-ms must be >= 0")
  else begin
    if show_stats || metrics_file <> None then Telemetry.set_enabled true;
    if trace_file <> None then begin
      Telemetry.Tracing.set_enabled true;
      Telemetry.Tracing.sample_every_from_env "BDPRINTD_TRACE_SAMPLE"
    end;
    (match flight_file with
    | None -> ()
    | Some file ->
      Telemetry.Flight.set_enabled true;
      Telemetry.Flight.set_dump_path (Some file));
    let watchdog =
      if stuck_ms = 0 then None
      else
        Some
          { Service.Supervisor.default_watchdog with Service.Supervisor.stuck_ms }
    in
    let config =
      {
        Server.jobs;
        admission_capacity = admission;
        cache_capacity = cache_size;
        default_deadline_ms = deadline_ms;
        watchdog;
      }
    in
    match
      Server.start ~config ~inline:Net.Conversion.inline
        ~convert:Net.Conversion.convert listen
    with
    | Result.Error e -> `Error (false, Error.to_string e)
    | Result.Ok server ->
      let on_signal _ = Server.drain server in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      (* the address line is the startup handshake: harnesses parse it to
         learn the ephemeral port, then treat the daemon as ready *)
      Printf.printf "bdprintd: listening on %s\n%!" (Server.address server);
      let final = Server.wait server in
      if show_stats then print_final_stats final;
      Option.iter
        (fun file -> Telemetry.Snapshot.write_files (Telemetry.Snapshot.take ()) file)
        metrics_file;
      Option.iter Telemetry.Tracing.write_chrome_json trace_file;
      Printf.eprintf "bdprintd: drained cleanly\n%!";
      `Ok ()
  end

let cmd =
  let doc = "a crash-tolerant networked conversion daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves Burger-Dybvig shortest-form conversions over a line \
         protocol (see docs/SERVICE.md): CONV requests answered OK, ERR \
         (structured failure) or SHED (explicit load shedding), plus \
         DEADLINE, PING, STATS, METRICS, TRACE and QUIT.  Pipelined CONV \
         frames are answered in order.";
      `P
        "A request that needs no bignum is converted on its connection's \
         thread (the reader's fast tiers, then the table tier); the rest, \
         and every request while a fault point is armed, go to the \
         supervised worker domains.  Both give the same bytes.";
      `P
        "The daemon survives worker-domain crashes (detect, run the \
         request again, respawn), bounds its admission queue (shedding \
         explicitly instead of queuing unboundedly) and drains gracefully \
         on SIGTERM/SIGINT: accepted requests finish, new ones are shed, \
         statistics flush, exit code 0.";
      `S Manpage.s_examples;
      `Pre
        "  bdprintd --listen 127.0.0.1:7070 --jobs 4\n\
        \  bdprintd --listen unix:/tmp/bdprintd.sock --stats\n\
        \  bdprintd --listen :0 --metrics service-metrics.json\n\
        \  printf 'CONV 0.1\\\\nQUIT\\\\n' | nc 127.0.0.1 7070";
    ]
  in
  Cmd.v
    (Cmd.info "bdprintd" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret
        (const run $ listen_arg $ jobs_arg $ admission_arg $ cache_arg
       $ deadline_arg $ stuck_ms_arg $ stats_arg $ metrics_arg $ trace_arg
       $ flight_arg))

let () = exit (Cmd.eval cmd)
