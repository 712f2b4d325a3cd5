(* Tests for the resilient daemon client (Net.Client): typed address
   parsing (Net.Addr, shared with bdprintd --listen), connection
   pooling, its reads through Net.Line_reader (split, over-long, cut and
   endless replies), retry/failover, endpoint ejection and HEALTHZ
   readmission, honored SHED retry-after hints, hedged requests,
   the local fallback tier, a 10k-request end-to-end chaos run through
   the client (worker kills, a worker wedge, slow/partial/malformed
   server writes, a daemon restart) asserting zero wrong conversions,
   and kill -9 failover across real bdprintd subprocesses. *)

module Addr = Net.Addr
module Client = Net.Client
module Server = Net.Server
module Wire = Net.Wire
module Error = Robust.Error
module Faults = Robust.Faults

(* bdprintd's own conversion; [pool_only] is the inline route of a
   server whose injected slow [convert] must see every request *)
let convert_real = Net.Conversion.convert
let pool_only _ = None

(* tight timeouts and cooldowns so failure paths run in milliseconds *)
let quick_config =
  {
    Client.default_config with
    Client.connect_timeout_ms = 500;
    backoff_ms = 1.0;
    backoff_cap_ms = 10.0;
    eject_cooldown_ms = 100;
  }

let start_server ?(config = Server.default_config) ?(port = 0)
    ?(inline = Net.Conversion.inline) ?(convert = convert_real) () =
  match
    Server.start ~config ~inline ~convert (Addr.Tcp ("127.0.0.1", port))
  with
  | Result.Ok s -> s
  | Result.Error e -> Alcotest.failf "server start: %s" (Error.to_string e)

let stop_server s =
  Server.drain s;
  ignore (Server.wait s)

let server_addr s = Addr.Tcp ("127.0.0.1", Option.get (Server.port s))

(* a TCP port that refuses connections: bind ephemeral, then close *)
let dead_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let check_ok name expected = function
  | Result.Ok o -> Alcotest.(check string) name expected o.Client.output
  | Result.Error e -> Alcotest.failf "%s: %s" name (Error.to_string e)

(* {2 Address parsing} *)

let test_parse_addr () =
  let ok s = Result.get_ok (Addr.parse s) in
  Alcotest.(check bool) "host:port" true
    (ok "example.com:7070" = Addr.Tcp ("example.com", 7070));
  Alcotest.(check bool) ":port" true
    (ok ":7070" = Addr.Tcp ("127.0.0.1", 7070));
  Alcotest.(check bool) "bare port" true
    (ok "7070" = Addr.Tcp ("127.0.0.1", 7070));
  Alcotest.(check bool) "unix path" true
    (ok "unix:/tmp/bd.sock" = Addr.Unix_path "/tmp/bd.sock");
  Alcotest.(check bool) "trimmed" true
    (ok "  :7070 " = Addr.Tcp ("127.0.0.1", 7070));
  let err ?listen s =
    match Addr.parse ?listen s with
    | Result.Error e -> Alcotest.(check string) "range class" "range" (Error.category e)
    | Result.Ok _ -> Alcotest.failf "%S should not parse" s
  in
  err "";
  err "nonsense";
  err "host:0";
  err "host:70000";
  err "host:port";
  err "0";
  err "unix:";
  Alcotest.(check string) "round-trip" "127.0.0.1:7070"
    (Addr.to_string (ok ":7070"));
  (* a listen address may ask for an ephemeral port; a connect address
     may not, and neither takes an empty socket path *)
  let listen s = Result.get_ok (Addr.parse ~listen:true s) in
  Alcotest.(check bool) "listen 0" true
    (listen "0" = Addr.Tcp ("127.0.0.1", 0));
  Alcotest.(check bool) "listen :0" true
    (listen ":0" = Addr.Tcp ("127.0.0.1", 0));
  Alcotest.(check bool) "listen host:0" true
    (listen "127.0.0.1:0" = Addr.Tcp ("127.0.0.1", 0));
  err ":0";
  err ~listen:true "unix:";
  err ~listen:true "70000";
  err ~listen:true "host:65536";
  err ~listen:true "nonsense"

let test_parse_addrs () =
  Alcotest.(check bool) "list" true
    (Result.get_ok (Addr.parse_list "7070, :7071,host:7072")
    = [
        Addr.Tcp ("127.0.0.1", 7070);
        Addr.Tcp ("127.0.0.1", 7071);
        Addr.Tcp ("host", 7072);
      ]);
  Alcotest.(check bool) "skips empty segments" true
    (Result.get_ok (Addr.parse_list "7070,,7071")
    = [ Addr.Tcp ("127.0.0.1", 7070); Addr.Tcp ("127.0.0.1", 7071) ]);
  Alcotest.(check bool) "empty list rejected" true
    (Result.is_error (Addr.parse_list " , ,"));
  Alcotest.(check bool) "one bad addr poisons the list" true
    (Result.is_error (Addr.parse_list "7070,bogus,7071"));
  Alcotest.(check bool) "no ephemeral port in a connect list" true
    (Result.is_error (Addr.parse_list "7070,0"))

(* {2 Basic conversation and pooling} *)

let test_basic_and_pooling () =
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let c = Client.create ~config:quick_config [ server_addr server ] in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_ok "first" "0.1" (Client.convert c "0.1");
  check_ok "second" "1e23" (Client.convert c "1e23");
  check_ok "third" "-2.5" (Client.convert c "-2.5");
  (match Client.convert c "0.5" with
  | Result.Ok o ->
    Alcotest.(check bool) "remote tier" true
      (o.Client.tier = Client.Remote (server_addr server));
    Alcotest.(check int) "single attempt" 1 o.Client.attempts
  | Result.Error e -> Alcotest.failf "convert: %s" (Error.to_string e));
  let s = Client.stats c in
  Alcotest.(check int) "requests" 4 s.Client.requests;
  Alcotest.(check int) "remote ok" 4 s.Client.remote_ok;
  (* serial requests reuse one pooled connection *)
  Alcotest.(check int) "one socket total" 1 s.Client.reconnects;
  Alcotest.(check int) "no retries" 0 s.Client.retries

let test_determinative_errors () =
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  (* the local fallback would also fail — but it must not even be
     consulted: a remote syntax verdict is determinative *)
  let local_calls = ref 0 in
  let local input =
    incr local_calls;
    convert_real input
  in
  let c =
    Client.create ~config:quick_config ~local [ server_addr server ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.convert c "not-a-number" with
  | Result.Error e ->
    Alcotest.(check string) "syntax class" "syntax" (Error.category e)
  | Result.Ok o -> Alcotest.failf "bogus input converted to %S" o.Client.output);
  Alcotest.(check int) "local fallback not consulted" 0 !local_calls;
  let s = Client.stats c in
  Alcotest.(check int) "typed error counted" 1 s.Client.typed_errors;
  Alcotest.(check int) "no retries on determinative errors" 0 s.Client.retries;
  (* the connection survived the error reply: next request reuses it *)
  check_ok "stream intact" "0.25" (Client.convert c "0.25");
  Alcotest.(check int) "still one socket" 1 (Client.stats c).Client.reconnects

(* {2 Fallback, failover, ejection, readmission} *)

let test_local_fallback_tier () =
  let c =
    Client.create ~config:quick_config ~local:convert_real
      [ Addr.Tcp ("127.0.0.1", dead_port ()) ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.convert c "0.1" with
  | Result.Ok o ->
    Alcotest.(check string) "fallback output" "0.1" o.Client.output;
    Alcotest.(check bool) "local tier" true (o.Client.tier = Client.Local)
  | Result.Error e -> Alcotest.failf "fallback: %s" (Error.to_string e));
  let s = Client.stats c in
  Alcotest.(check int) "local fallback counted" 1 s.Client.local_fallbacks;
  Alcotest.(check bool) "endpoint ejected" true (s.Client.ejections >= 1)

let test_no_fallback_typed_error () =
  let c =
    Client.create ~config:quick_config
      [ Addr.Tcp ("127.0.0.1", dead_port ()) ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.convert c "0.1" with
  | Result.Error e ->
    Alcotest.(check string) "internal class" "internal" (Error.category e)
  | Result.Ok _ -> Alcotest.fail "dead endpoint cannot convert"

let test_failover_and_ejection () =
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let dead = Addr.Tcp ("127.0.0.1", dead_port ()) in
  let c = Client.create ~config:quick_config [ dead; server_addr server ] in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for i = 1 to 8 do
    check_ok (Printf.sprintf "request %d" i) "0.5" (Client.convert c "0.5")
  done;
  let s = Client.stats c in
  Alcotest.(check int) "all answered remotely" 8 s.Client.remote_ok;
  Alcotest.(check int) "dead endpoint ejected once" 1 s.Client.ejections;
  (* within the cooldown the dead endpoint reads as unusable *)
  (match Client.endpoint_states c with
  | [ (_, dead_usable); (_, live_usable) ] ->
    Alcotest.(check bool) "dead unusable" false dead_usable;
    Alcotest.(check bool) "live usable" true live_usable
  | l -> Alcotest.failf "expected 2 endpoints, got %d" (List.length l));
  Alcotest.(check bool) "failover retries happened" true (s.Client.retries >= 3)

let test_readmission_after_restart () =
  let port = dead_port () in
  let c =
    Client.create ~config:quick_config ~local:convert_real
      [ Addr.Tcp ("127.0.0.1", port) ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* endpoint down: local fallback, endpoint ejected *)
  (match Client.convert c "0.1" with
  | Result.Ok { Client.tier = Client.Local; _ } -> ()
  | Result.Ok _ -> Alcotest.fail "dead endpoint answered"
  | Result.Error e -> Alcotest.failf "fallback: %s" (Error.to_string e));
  Alcotest.(check bool) "ejected" true ((Client.stats c).Client.ejections >= 1);
  (* the daemon comes back on the same address; once the cooldown
     elapses the next request HEALTHZ-probes and readmits it *)
  let server = start_server ~port () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  Thread.delay 0.15;
  (match Client.convert c "0.5" with
  | Result.Ok o ->
    Alcotest.(check string) "remote again" "0.5" o.Client.output;
    Alcotest.(check bool) "remote tier" true
      (o.Client.tier = Client.Remote (Addr.Tcp ("127.0.0.1", port)))
  | Result.Error e -> Alcotest.failf "readmitted convert: %s" (Error.to_string e));
  Alcotest.(check int) "readmission counted" 1
    (Client.stats c).Client.readmissions

(* {2 Shed hints and deadlines} *)

(* raw helper connection for occupying the daemon's only admission slot *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd b off len in
      go (off + n) (len - n)
    end
  in
  go 0 (Bytes.length b)

let test_shed_retry_after_honored () =
  let slow input =
    Unix.sleepf 0.05;
    convert_real input
  in
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      admission_capacity = 1;
      cache_capacity = 0;
    }
  in
  let server = start_server ~config ~inline:pool_only ~convert:slow () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let port = Option.get (Server.port server) in
  let c =
    Client.create
      ~config:{ quick_config with Client.max_attempts = 10 }
      [ Addr.Tcp ("127.0.0.1", port) ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* warm the daemon's service-time EWMA so its retry-after hints are
     meaningful (~50 ms), then occupy the single admission slot *)
  check_ok "warmup" "0.1" (Client.convert c "0.1");
  let occupier = raw_connect port in
  (* the server submits only after it admits, so two submissions (the
     warm-up and the occupier) mean the slot is taken.  The warm-up's
     connection thread frees the slot only after it writes the reply,
     so an occupier that arrives first is shed: send it again. *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec occupy sheds =
    raw_send occupier "CONV 0.5\n";
    let rec admitted () =
      let s = Server.stats server in
      if s.Server.supervisor.submitted >= 2 then ()
      else if s.Server.shed_queue_full > sheds then occupy s.shed_queue_full
      else if Unix.gettimeofday () > deadline then
        Alcotest.failf "occupier not admitted within 2 s (submitted %d)"
          s.supervisor.submitted
      else begin
        Thread.delay 0.001;
        admitted ()
      end
    in
    admitted ()
  in
  occupy (Server.stats server).Server.shed_queue_full;
  (* the client gets SHED queue-full, honors the hint, retries, wins *)
  check_ok "shed then converted" "1.5" (Client.convert c "1.5");
  let s = Client.stats c in
  Alcotest.(check bool) "shed honored" true (s.Client.sheds_honored >= 1);
  Alcotest.(check bool) "request retried" true (s.Client.retries >= 1);
  Unix.close occupier

let test_client_deadline () =
  let slow input =
    Unix.sleepf 0.5;
    convert_real input
  in
  let config = { Server.default_config with Server.cache_capacity = 0 } in
  let server = start_server ~config ~inline:pool_only ~convert:slow () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let c = Client.create ~config:quick_config [ server_addr server ] in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.convert c ~deadline_ms:60 "0.1" with
  | Result.Error e ->
    Alcotest.(check string) "budget class" "budget" (Error.category e)
  | Result.Ok o -> Alcotest.failf "converted %S past the deadline" o.Client.output);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "deadline bounded the wait" true (elapsed < 0.45)

(* {2 Hedging} *)

let test_hedged_requests () =
  let slow input =
    Unix.sleepf 0.3;
    convert_real input
  in
  let fast = start_server () in
  let lame =
    start_server
      ~config:{ Server.default_config with Server.cache_capacity = 0 }
      ~inline:pool_only ~convert:slow ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server lame;
      stop_server fast)
  @@ fun () ->
  (* the slow endpoint is listed first, so it is the primary pick; the
     hedge fires after 20 ms and the fast endpoint answers first *)
  let c =
    Client.create
      ~config:{ quick_config with Client.hedge_ms = Some 20 }
      [ server_addr lame; server_addr fast ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.convert c "0.1" with
  | Result.Ok o ->
    Alcotest.(check string) "output" "0.1" o.Client.output;
    Alcotest.(check bool) "answered by the fast endpoint" true
      (o.Client.tier = Client.Remote (server_addr fast))
  | Result.Error e -> Alcotest.failf "hedged convert: %s" (Error.to_string e));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "did not wait for the slow endpoint" true
    (elapsed < 0.25);
  let s = Client.stats c in
  Alcotest.(check int) "hedge launched" 1 s.Client.hedges;
  Alcotest.(check int) "hedge won" 1 s.Client.hedge_wins

(* {2 A deliberately unreliable daemon}

   A minimal Wire-speaking server used to aim the net.* fault points at
   the CLIENT side of the protocol: per request it may emit a malformed
   reply frame, stall, or split the write — otherwise it answers
   correctly.  The resilient client must absorb all of it. *)

let start_vandal () =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 64;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let write fd s =
    try raw_send fd s
    with Unix.Unix_error (_, _, _) -> ()
  in
  let serve cfd =
    let buf = Bytes.create 4096 in
    let acc = Buffer.create 128 in
    let alive = ref true in
    (try
       while !alive do
         let n = Unix.read cfd buf 0 (Bytes.length buf) in
         if n = 0 then alive := false
         else
           String.split_on_char '\n' (Bytes.sub_string buf 0 n)
           |> List.iteri (fun i piece ->
                  if i = 0 then Buffer.add_string acc piece
                  else begin
                    let line = Buffer.contents acc in
                    Buffer.clear acc;
                    Buffer.add_string acc piece;
                    match Wire.parse_request line with
                    | Ok (Wire.Conv { input; tid = _ }) ->
                      if Faults.fires "net.malformed-frame" then
                        write cfd "BOGUS ???\n"
                      else begin
                        if Faults.fires "net.slow-client" then
                          Thread.delay 0.002;
                        let reply =
                          match convert_real input with
                          | Ok o -> Wire.Converted o
                          | Error e ->
                            Wire.Failed
                              {
                                cls = Error.category e;
                                detail = Error.to_string e;
                              }
                        in
                        let s = Wire.render_reply reply in
                        if
                          String.length s > 1
                          && Faults.fires "net.partial-write"
                        then begin
                          let half = String.length s / 2 in
                          write cfd (String.sub s 0 half);
                          Thread.delay 0.001;
                          write cfd
                            (String.sub s half (String.length s - half))
                        end
                        else write cfd s
                      end
                    | Ok (Wire.Deadline ms) ->
                      write cfd
                        (Wire.render_reply
                           (Wire.Converted ("deadline=" ^ string_of_int ms)))
                    | Ok Wire.Healthz ->
                      write cfd (Wire.render_reply (Wire.Ready ""))
                    | Ok Wire.Ping -> write cfd (Wire.render_reply Wire.Pong)
                    | Ok _ | Error _ ->
                      write cfd
                        (Wire.render_reply
                           (Wire.Failed { cls = "proto"; detail = "vandal" }))
                  end)
       done
     with Unix.Unix_error (_, _, _) -> ());
    try Unix.close cfd with Unix.Unix_error (_, _, _) -> ()
  in
  let accept_loop () =
    try
      while true do
        let cfd, _ = Unix.accept lfd in
        ignore (Thread.create serve cfd)
      done
    with Unix.Unix_error (_, _, _) -> ()
  in
  let th = Thread.create accept_loop () in
  let stop () =
    (try Unix.shutdown lfd Unix.SHUTDOWN_ALL
     with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close lfd with Unix.Unix_error (_, _, _) -> ());
    Thread.join th
  in
  (port, stop)

let test_malformed_reply_recovery () =
  Faults.reset_call_counts ();
  (* exactly the first vandal reply is garbage; everything after is clean *)
  Faults.arm_at ~call:1 "net.malformed-frame";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  let port, stop = start_vandal () in
  Fun.protect ~finally:stop @@ fun () ->
  let c =
    Client.create ~config:quick_config [ Addr.Tcp ("127.0.0.1", port) ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* first reply is garbage: the client drops the connection, retries on
     a fresh one, and still returns the right answer *)
  check_ok "recovered" "0.1" (Client.convert c "0.1");
  let s = Client.stats c in
  Alcotest.(check bool) "a retry happened" true (s.Client.retries >= 1);
  Alcotest.(check bool) "a reconnect happened" true (s.Client.reconnects >= 2);
  check_ok "clean afterwards" "0.5" (Client.convert c "0.5")

(* {2 Reading replies}

   The client reads through Net.Line_reader under its own 1 MiB reply
   cap.  A scripted peer reads the first request of its k-th connection
   (counting from 0), runs [script k] on the socket, and then closes
   it. *)

let start_scripted script =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let serve k cfd =
    (try
       match Net.Line_reader.read (Net.Line_reader.create cfd) with
       | Net.Line_reader.Line _ -> script k cfd
       | _ -> ()
     with Unix.Unix_error (_, _, _) -> ());
    try Unix.close cfd with Unix.Unix_error (_, _, _) -> ()
  in
  let accept_loop () =
    let rec go k =
      let cfd, _ = Unix.accept lfd in
      ignore (Thread.create (serve k) cfd);
      go (k + 1)
    in
    try go 0 with Unix.Unix_error (_, _, _) -> ()
  in
  let th = Thread.create accept_loop () in
  let stop () =
    (try Unix.shutdown lfd Unix.SHUTDOWN_ALL
     with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close lfd with Unix.Unix_error (_, _, _) -> ());
    Thread.join th
  in
  (port, stop)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* The first connection's reply fails the one attempt with [message];
   the next request opens a fresh connection and gets its answer. *)
let check_bad_reply_then_recovery ?(config = quick_config) ~first ~message
    () =
  let port, stop =
    start_scripted (function
      | 0 -> first
      | _ -> fun fd -> raw_send fd "OK 0.5\n")
  in
  Fun.protect ~finally:stop @@ fun () ->
  let c =
    Client.create
      ~config:{ config with Client.max_attempts = 1 }
      [ Addr.Tcp ("127.0.0.1", port) ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.convert c "0.5" with
  | Result.Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names %S" (Error.to_string e) message)
      true
      (contains (Error.to_string e) message)
  | Result.Ok o -> Alcotest.failf "bad reply accepted as %S" o.Client.output);
  check_ok "fresh connection answers" "0.5" (Client.convert c "0.5");
  Alcotest.(check int) "two sockets" 2 (Client.stats c).Client.reconnects

let test_reply_too_long () =
  let reply = "OK " ^ String.make ((1 lsl 20) + 16) '7' ^ "\n" in
  check_bad_reply_then_recovery
    ~first:(fun fd -> raw_send fd reply)
    ~message:"reply frame too long" ()

let test_reply_cut_short () =
  check_bad_reply_then_recovery
    ~first:(fun fd -> raw_send fd "OK 0.")
    ~message:"connection closed" ()

(* A reply line that never ends is discarded past the cap without being
   held, and the attempt's timeout ends it: each read(2) returns in
   time, but together they may not outlast the attempt. *)
let test_reply_without_end () =
  let chunk = String.make 65536 '7' in
  check_bad_reply_then_recovery
    ~config:{ quick_config with Client.request_timeout_ms = 300 }
    ~first:(fun fd ->
      raw_send fd "OK ";
      while true do
        raw_send fd chunk
      done)
    ~message:"read timeout" ()

(* Every reply of the in-process daemon reaches the client in two
   writes, a millisecond apart; every answer must still be whole. *)
let test_split_replies () =
  Faults.reset_trip_counts ();
  Faults.arm ~probability:1.0 "net.partial-write";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_trip_counts ())
  @@ fun () ->
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let c = Client.create ~config:quick_config [ server_addr server ] in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let inputs = [ "0.1"; "1e23"; "-2.5"; "5e-324"; "1.7976931348623157e308" ] in
  List.iter
    (fun input ->
      for _ = 1 to 4 do
        check_ok input input (Client.convert c input)
      done)
    inputs;
  Alcotest.(check int) "every reply was split" 20
    (Faults.trip_count "net.partial-write");
  Alcotest.(check int) "no retries" 0 (Client.stats c).Client.retries

(* {2 End-to-end chaos through the client}

   10k requests from 4 threads through one shared client, against a
   fleet of one vandal endpoint (malformed / slow / partial replies) and
   two real in-process daemons (worker kills armed, one worker wedge
   scheduled, one daemon drained and restarted mid-run), with the local
   pipeline as final fallback.  The contract: every request ends in a
   correct conversion or a typed error of the fault-free class — zero
   wrong outputs, zero unexplained failures. *)

let test_chaos_through_client () =
  let requests =
    match Sys.getenv_opt "NET_CHAOS_REQUESTS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
    | None -> 10_000
  in
  Faults.reset_call_counts ();
  Faults.arm ~probability:0.01 "service.worker-kill";
  Faults.arm ~probability:0.05 "net.malformed-frame";
  Faults.arm ~probability:0.01 "net.slow-client";
  Faults.arm ~probability:0.02 "net.partial-write";
  Faults.arm_at ~call:100 "service.worker-wedge";
  Faults.arm_at ~call:1 "net.daemon-restart";
  Printf.printf
    "chaos: reproduce with BDPRINT_FAULTS_SEED=%d BDPRINT_FAULTS=%S\n%!"
    Faults.seed (Faults.spec_string ());
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  (* corpus with fault-free expectations, computed before the run *)
  let st = Random.State.make [| Faults.seed; 0xc11e47; requests |] in
  let hot = [| "0"; "1"; "0.5"; "0.1"; "1e23"; "-2.5"; "bogus"; "1e" |] in
  let fresh_input () =
    if Random.State.int st 4 = 0 then hot.(Random.State.int st 8)
    else
      let f = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
      match classify_float f with
      | FP_nan | FP_infinite -> "0.25"
      | _ -> Printf.sprintf "%.17g" f
  in
  let corpus =
    Array.init requests (fun _ ->
        let input = fresh_input () in
        (input, convert_real input))
  in
  let vandal_port, stop_vandal = start_vandal () in
  let server_config =
    { Server.default_config with Server.jobs = 2; cache_capacity = 512 }
  in
  let server_a = ref (start_server ~config:server_config ()) in
  let port_a = Option.get (Server.port !server_a) in
  let server_b = start_server ~config:server_config () in
  let c =
    Client.create
      ~config:
        {
          quick_config with
          Client.max_attempts = 6;
          eject_cooldown_ms = 200;
        }
      ~local:convert_real
      [
        Addr.Tcp ("127.0.0.1", vandal_port);
        Addr.Tcp ("127.0.0.1", port_a);
        server_addr server_b;
      ]
  in
  let completed = Atomic.make 0 in
  let wrong = Atomic.make 0 in
  let wrong_class = Atomic.make 0 in
  let restarted = Atomic.make false in
  (* net.daemon-restart: once a third of the run is through, drain
     daemon A (in-flight requests finish, new ones shed draining), then
     bring it back on the same port — the client must fail over and
     later readmit it *)
  let controller =
    Thread.create
      (fun () ->
        let fired = ref false in
        while (not !fired) && Atomic.get completed < requests do
          if
            Atomic.get completed > requests / 3
            && Faults.fires "net.daemon-restart"
          then begin
            stop_server !server_a;
            Thread.delay 0.02;
            server_a := start_server ~config:server_config ~port:port_a ();
            Atomic.set restarted true;
            fired := true
          end
          else Thread.delay 0.005
        done)
      ()
  in
  let n_threads = 4 in
  let per_thread = requests / n_threads in
  let check_one idx =
    let input, expected = corpus.(idx) in
    (match (Client.convert c input, expected) with
    | Result.Ok { Client.output; _ }, Ok want ->
      if not (String.equal output want) then Atomic.incr wrong
    | Result.Ok _, Error _ -> Atomic.incr wrong
    | Result.Error e, Error want ->
      if not (String.equal (Error.category e) (Error.category want)) then
        Atomic.incr wrong_class
    | Result.Error _, Ok _ ->
      (* with a local fallback tier, a convertible input must convert *)
      Atomic.incr wrong);
    Atomic.incr completed
  in
  let worker t () =
    for i = 0 to per_thread - 1 do
      check_one ((t * per_thread) + i)
    done
  in
  let threads = List.init n_threads (fun t -> Thread.create (worker t) ()) in
  List.iter Thread.join threads;
  Thread.join controller;
  let s = Client.stats c in
  Printf.printf
    "chaos: %d requests: remote-ok=%d local=%d errors=%d retries=%d \
     sheds=%d ejections=%d readmissions=%d restarted=%b\n\
     %!"
    (Atomic.get completed) s.Client.remote_ok s.Client.local_fallbacks
    s.Client.typed_errors s.Client.retries s.Client.sheds_honored
    s.Client.ejections s.Client.readmissions (Atomic.get restarted);
  Alcotest.(check int) "zero wrong conversions" 0 (Atomic.get wrong);
  Alcotest.(check int) "zero misclassified failures" 0
    (Atomic.get wrong_class);
  Alcotest.(check int) "every request accounted" (n_threads * per_thread)
    (s.Client.remote_ok + s.Client.local_fallbacks + s.Client.typed_errors);
  Alcotest.(check bool) "daemon restart happened" true (Atomic.get restarted);
  Alcotest.(check bool) "chaos actually bit (retries happened)" true
    (s.Client.retries > 0);
  (* the surviving daemons healed every worker crash.  A crashing
     worker re-queues its request before it spawns its replacement, so
     the last respawn can trail the last reply: wait for it (2 s bound)
     before comparing. *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec settled () =
    let sup = (Server.stats server_b).Server.supervisor in
    if
      sup.Service.Supervisor.respawns >= sup.Service.Supervisor.crashes
      || Unix.gettimeofday () > deadline
    then sup
    else begin
      Thread.delay 0.001;
      settled ()
    end
  in
  let sb = settled () in
  Alcotest.(check int) "respawn healed every crash on B"
    sb.Service.Supervisor.crashes sb.Service.Supervisor.respawns;
  Client.close c;
  stop_vandal ();
  stop_server !server_a;
  stop_server server_b

(* {2 kill -9 failover across real bdprintd processes} *)

let bdprintd_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdprintd.exe"

let spawn_daemon () =
  let exe = bdprintd_exe () in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      [| exe; "--listen"; "127.0.0.1:0"; "--jobs"; "2" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  (* startup handshake: "bdprintd: listening on 127.0.0.1:PORT" *)
  let line = input_line ic in
  let port =
    match String.rindex_opt line ':' with
    | Some i ->
      int_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.failf "bad handshake %S" line
  in
  (pid, ic, port)

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ()

let test_kill9_failover () =
  let pid_a, ic_a, port_a = spawn_daemon () in
  let pid_b, ic_b, port_b = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      reap pid_a;
      reap pid_b;
      close_in_noerr ic_a;
      close_in_noerr ic_b)
  @@ fun () ->
  let c =
    Client.create
      ~config:{ quick_config with Client.eject_cooldown_ms = 10_000 }
      ~local:convert_real
      [
        Addr.Tcp ("127.0.0.1", port_a); Addr.Tcp ("127.0.0.1", port_b);
      ]
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let inputs = [| "0.1"; "1e23"; "-2.5"; "0.5"; "6.125" |] in
  let wrong = ref 0 in
  for i = 1 to 200 do
    (* kill -9 daemon A mid-stream: no drain, no goodbye — in-flight
       requests die with the process and must fail over to B *)
    if i = 50 then begin
      Unix.kill pid_a Sys.sigkill;
      ignore (Unix.waitpid [] pid_a)
    end;
    let input = inputs.(i mod Array.length inputs) in
    match Client.convert c input with
    | Result.Ok o -> if not (String.equal o.Client.output input) then incr wrong
    | Result.Error e ->
      Alcotest.failf "request %d failed: %s" i (Error.to_string e)
  done;
  Alcotest.(check int) "zero wrong conversions across the kill" 0 !wrong;
  let s = Client.stats c in
  Alcotest.(check bool) "killed endpoint ejected" true (s.Client.ejections >= 1);
  Alcotest.(check bool) "stream kept converting remotely" true
    (s.Client.remote_ok = 200);
  (* kill the replica too: the local tier carries the stream *)
  Unix.kill pid_b Sys.sigkill;
  ignore (Unix.waitpid [] pid_b);
  for i = 1 to 5 do
    match Client.convert c "0.25" with
    | Result.Ok o ->
      Alcotest.(check string)
        (Printf.sprintf "local %d" i)
        "0.25" o.Client.output
    | Result.Error e -> Alcotest.failf "local tier: %s" (Error.to_string e)
  done;
  Alcotest.(check bool) "local fallbacks counted" true
    ((Client.stats c).Client.local_fallbacks >= 5)

(* {2 CLI exit codes} *)

let bdprint_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdprint.exe"

let test_connect_addr_exit_codes () =
  let run args =
    Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (bdprint_exe ()) args)
  in
  (* malformed --connect addresses: typed range error, exit 2, up front *)
  Alcotest.(check int) "port out of range" 2 (run "--connect 70000 0.5");
  Alcotest.(check int) "empty unix path" 2 (run "--connect unix: 0.5");
  Alcotest.(check int) "garbage address" 2 (run "--connect nonsense 0.5");
  Alcotest.(check int) "bad addr in list" 2 (run "--connect 7070,bogus 0.5");
  (* well-formed but unreachable: the local fallback answers, exit 0 *)
  let tmp = Filename.temp_file "bdprint_connect" ".out" in
  let st =
    Sys.command
      (Printf.sprintf "%s --connect 127.0.0.1:%d 0.5 > %s 2>/dev/null"
         (bdprint_exe ()) (dead_port ()) tmp)
  in
  let ic = open_in tmp in
  let out = input_line ic in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check int) "fallback exit 0" 0 st;
  Alcotest.(check string) "fallback output" "0.5" out;
  (* --hedge-ms without --connect is a usage error *)
  Alcotest.(check bool) "hedge-ms needs connect" true
    (run "--hedge-ms 5 0.5" <> 0);
  (* bdprintd prints only the default conversion, so --connect refuses
     any other setting: exit 2 naming the flag, before any socket opens
     (the local fallback would otherwise answer with exit 0) *)
  let dead = dead_port () in
  let err_file = Filename.temp_file "bdprint_connect" ".err" in
  let refused ?(stdin = false) flags flag =
    let st =
      Sys.command
        (Printf.sprintf "%s %s --connect 127.0.0.1:%d %s %s >/dev/null 2>%s"
           (if stdin then "printf '0.1\\n2.5\\n' |" else "")
           (bdprint_exe ()) dead flags
           (if stdin then "--stdin" else "0.1")
           err_file)
    in
    let ic = open_in err_file in
    let err = input_line ic in
    close_in ic;
    Alcotest.(check int) (flags ^ " exit") 2 st;
    Alcotest.(check bool) (flags ^ " names " ^ flag) true (contains err flag)
  in
  refused "--base 16" "--base";
  refused "--digits 3" "--digits";
  refused "--places 2" "--places";
  refused "--hex" "--hex";
  refused "--notation scientific" "--notation";
  refused "--format binary32" "--format";
  refused "--mode up" "--mode";
  refused ~stdin:true "--digits 3" "--digits";
  Sys.remove err_file;
  (* the defaults spelled out, and any strategy, still go through *)
  Alcotest.(check int) "explicit defaults" 0
    (run
       (Printf.sprintf
          "--connect 127.0.0.1:%d --base 10 --mode even --format binary64 \
           --notation auto --strategy gay 0.5"
          dead))

(* bdprintd --listen reads the same grammar as --connect, plus port 0
   for an ephemeral port *)
let test_listen_addr () =
  let err_file = Filename.temp_file "bdprintd_listen" ".err" in
  let st =
    Sys.command
      (Printf.sprintf "%s --listen 70000 >/dev/null 2>%s" (bdprintd_exe ())
         err_file)
  in
  let ic = open_in err_file in
  let err = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_file;
  Alcotest.(check bool) "port out of range refused" true (st <> 0);
  (* cmdliner may wrap the message, so its two halves are checked apart *)
  Alcotest.(check bool) "with the range error's text" true
    (contains err "range error: address: \"70000\": port must be"
    && contains err "0..65535");
  let pid, ic, port = spawn_daemon () in
  reap pid;
  close_in_noerr ic;
  Alcotest.(check bool) "127.0.0.1:0 binds an ephemeral port" true (port > 0)

let () =
  Alcotest.run "client"
    [
      ( "addr",
        [
          Alcotest.test_case "parse" `Quick test_parse_addr;
          Alcotest.test_case "parse lists" `Quick test_parse_addrs;
        ] );
      ( "conversation",
        [
          Alcotest.test_case "basic + pooling" `Quick test_basic_and_pooling;
          Alcotest.test_case "determinative errors" `Quick
            test_determinative_errors;
          Alcotest.test_case "deadline" `Quick test_client_deadline;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "local fallback" `Quick test_local_fallback_tier;
          Alcotest.test_case "no fallback = typed error" `Quick
            test_no_fallback_typed_error;
          Alcotest.test_case "failover + ejection" `Quick
            test_failover_and_ejection;
          Alcotest.test_case "readmission" `Quick test_readmission_after_restart;
          Alcotest.test_case "shed retry-after honored" `Quick
            test_shed_retry_after_honored;
          Alcotest.test_case "hedged requests" `Quick test_hedged_requests;
          Alcotest.test_case "malformed reply recovery" `Quick
            test_malformed_reply_recovery;
        ] );
      ( "reader",
        [
          Alcotest.test_case "split replies" `Quick test_split_replies;
          Alcotest.test_case "reply over the cap" `Quick test_reply_too_long;
          Alcotest.test_case "reply cut short" `Quick test_reply_cut_short;
          Alcotest.test_case "reply without end" `Quick test_reply_without_end;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "10k through the client" `Slow
            test_chaos_through_client;
          Alcotest.test_case "kill -9 failover" `Slow test_kill9_failover;
        ] );
      ( "cli",
        [
          Alcotest.test_case "--connect exit codes" `Quick
            test_connect_addr_exit_codes;
          Alcotest.test_case "bdprintd --listen" `Quick test_listen_addr;
        ] );
    ]
