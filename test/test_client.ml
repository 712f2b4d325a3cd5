(* Tests for the resilient daemon client (Net.Client): typed address
   parsing (Net.Addr, shared with bdprintd --listen), connection
   pooling, its reads through Net.Line_reader (split, over-long, cut and
   endless replies), retries (a SHED queue-full on the client's own
   backoff too), the down state and its cooldown, the local fallback
   tier, inputs a CONV line cannot carry, a 10k-request end-to-end
   chaos run through the client (slow/partial/malformed replies, then
   worker kills, a worker wedge and a daemon restart) asserting zero
   wrong conversions, kill -9 of a real bdprintd subprocess
   mid-stream, and bdprintd's own address and --jobs checks. *)

module Addr = Net.Addr
module Client = Net.Client
module Server = Net.Server
module Wire = Net.Wire
module Error = Robust.Error
module Faults = Robust.Faults

(* bdprintd's own conversion; [pool_only] is the inline route of a
   server whose injected slow [convert] must see every request *)
let convert_real input = Net.Conversion.convert input
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

(* {2 Basic conversation and pooling} *)

let test_basic_and_pooling () =
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let c = Client.create ~config:quick_config (server_addr server) in
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
    Client.create ~config:quick_config ~local (server_addr server)
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

(* An input a CONV line cannot carry unchanged never reaches the
   daemon, which would convert another string: the local tier answers
   it with no attempt, or, with no local tier, a typed syntax error. *)
let test_uncarried_inputs () =
  let carried = [ "0.1"; "bogus"; "TID="; "1e23" ] in
  let uncarried =
    [ ""; " 0.1"; "0.1 "; "\t0.1"; "0.1\rX"; "0.1\nX"; "0.1\r";
      "TID=5 0.1"; "TID=0 0.1"; "TID=7 1e23" ]
  in
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "%S carried" i) true
        (Wire.conv_reads_back i))
    carried;
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "%S not carried" i) false
        (Wire.conv_reads_back i))
    uncarried;
  (* a traced request's TID token goes first, so a TID-like input rides
     behind it *)
  Alcotest.(check bool) "behind a trace id" true
    (Wire.conv_reads_back ~tid:3 "TID=5 0.1");
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let local_calls = ref 0 in
  let stub _ =
    incr local_calls;
    Ok "local"
  in
  let create local = Client.create ~config:quick_config ?local (server_addr server) in
  let c = create (Some stub) in
  let lib = create (Some convert_real) in
  let bare = create None in
  let clients = [ c; lib; bare ] in
  Fun.protect ~finally:(fun () -> List.iter Client.close clients) @@ fun () ->
  List.iter
    (fun input ->
      let name = Printf.sprintf "%S" input in
      (match Client.convert c input with
      | Result.Ok o ->
        Alcotest.(check bool) (name ^ " local") true (o.Client.tier = Client.Local);
        Alcotest.(check int) (name ^ " no attempt") 0 o.Client.attempts
      | Result.Error e -> Alcotest.failf "%s: %s" name (Error.to_string e));
      (match (Client.convert lib input, convert_real input) with
      | Result.Error e, Error want ->
        Alcotest.(check string) (name ^ " as the library")
          (Error.to_string want) (Error.to_string e)
      | Result.Ok o, _ -> Alcotest.failf "%s converted to %S" name o.Client.output
      | Result.Error e, Ok _ -> Alcotest.failf "%s: %s" name (Error.to_string e));
      match Client.convert bare input with
      | Result.Error e ->
        Alcotest.(check string) (name ^ " without a local tier") "syntax"
          (Error.category e)
      | Result.Ok o -> Alcotest.failf "%s converted to %S" name o.Client.output)
    uncarried;
  Alcotest.(check int) "each reached the local tier" (List.length uncarried)
    !local_calls;
  List.iter
    (fun c ->
      Alcotest.(check int) "no socket opened" 0 (Client.stats c).Client.reconnects)
    clients;
  Alcotest.(check int) "the daemon saw none" 0 (Server.stats server).Server.requests

(* An input over the budget's input length never goes out: past the
   daemon's frame cap (that length plus 64 bytes) the daemon would
   discard its line unread and answer ERR proto, which the client would
   retry.  The local tier answers with the library's error, and with no
   local tier the client gives the same budget error, with no socket
   opened. *)
let test_over_long_input () =
  let server = start_server () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let input = String.make 70_000 '1' in
  let lib = Client.create ~config:quick_config ~local:convert_real (server_addr server) in
  let bare = Client.create ~config:quick_config (server_addr server) in
  Fun.protect ~finally:(fun () -> Client.close lib; Client.close bare) @@ fun () ->
  let want = Error.to_string (Result.get_error (convert_real input)) in
  Alcotest.(check string) "the library's error" "budget exceeded: input length: 70000 > limit 65536" want;
  List.iter
    (fun (name, c) ->
      (match Client.convert c input with
      | Result.Error e -> Alcotest.(check string) name want (Error.to_string e)
      | Result.Ok o -> Alcotest.failf "%s: converted to %S" name o.Client.output);
      let s = Client.stats c in
      Alcotest.(check int) (name ^ ": no retry") 0 s.Client.retries;
      Alcotest.(check int) (name ^ ": no socket") 0 s.Client.reconnects)
    [ ("local tier", lib); ("no local tier", bare) ];
  Alcotest.(check int) "the daemon saw none" 0 (Server.stats server).Server.requests

(* A daemon's budget error reads back into the error in-process bdprint
   gives: the daemon's detail once, class budget.  Under a 0 ms default
   deadline (bdprintd --deadline-ms 0) every request is answered
   ERR budget. *)
let test_remote_budget_error () =
  let config = { Server.default_config with Server.default_deadline_ms = Some 0 } in
  let server = start_server ~config () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let c = Client.create ~config:quick_config (server_addr server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.convert c "0.1" with
  | Result.Error (Error.Budget { what; limit; got }) as r ->
    Alcotest.(check string) "what" Robust.Budget.deadline_what what;
    Alcotest.(check int) "limit" 0 limit;
    Alcotest.(check string) "rendered once"
      (Printf.sprintf "budget exceeded: deadline-ms: %d > limit 0" got)
      (Error.to_string (Result.get_error r))
  | Result.Error e -> Alcotest.failf "not a budget error: %s" (Error.to_string e)
  | Result.Ok o -> Alcotest.failf "converted to %S" o.Client.output

(* {2 Fallback, the down state and its cooldown} *)

let test_local_fallback_tier () =
  let c =
    Client.create ~config:quick_config ~local:convert_real
      (Addr.Tcp ("127.0.0.1", dead_port ()))
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
      (Addr.Tcp ("127.0.0.1", dead_port ()))
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.convert c "0.1" with
  | Result.Error e ->
    Alcotest.(check string) "internal class" "internal" (Error.category e)
  | Result.Ok _ -> Alcotest.fail "dead endpoint cannot convert"

let test_readmission_after_restart () =
  let port = dead_port () in
  let c =
    Client.create ~config:quick_config ~local:convert_real
      (Addr.Tcp ("127.0.0.1", port))
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* daemon down: local fallback, daemon marked down *)
  (match Client.convert c "0.1" with
  | Result.Ok { Client.tier = Client.Local; _ } -> ()
  | Result.Ok _ -> Alcotest.fail "dead endpoint answered"
  | Result.Error e -> Alcotest.failf "fallback: %s" (Error.to_string e));
  Alcotest.(check bool) "ejected" true ((Client.stats c).Client.ejections >= 1);
  (* the daemon comes back on the same address; once the cooldown
     elapses the next request tries it, and it answers *)
  let server = start_server ~port () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  Thread.delay 0.15;
  (match Client.convert c "0.5" with
  | Result.Ok o ->
    Alcotest.(check string) "remote again" "0.5" o.Client.output;
    Alcotest.(check bool) "remote tier" true
      (o.Client.tier = Client.Remote (Addr.Tcp ("127.0.0.1", port)));
    Alcotest.(check int) "first attempt answered" 1 o.Client.attempts
  | Result.Error e -> Alcotest.failf "readmitted convert: %s" (Error.to_string e));
  Alcotest.(check int) "marked down once" 1 (Client.stats c).Client.ejections

(* {2 Sheds and deadlines} *)

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

let test_queue_full_retried () =
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
  (* the client's own backoff must outlast the occupier's 50 ms
     conversion: nine sleeps capped at 50 ms, at least half of
     1 + 2 + 4 + ... + 50 ms by the jitter, wait over 100 ms *)
  let c =
    Client.create
      ~config:{ quick_config with Client.max_attempts = 10; backoff_cap_ms = 50.0 }
      (Addr.Tcp ("127.0.0.1", port))
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* one conversion on the client's pooled connection, then occupy the
     single admission slot *)
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
  let sheds = (Server.stats server).Server.shed_queue_full in
  (* the client gets SHED queue-full, backs off on its own schedule,
     retries and gets the bytes *)
  check_ok "shed then converted" "1.5" (Client.convert c "1.5");
  let s = Client.stats c in
  Alcotest.(check bool) "request retried" true (s.Client.retries >= 1);
  Alcotest.(check bool) "the daemon shed it" true
    ((Server.stats server).Server.shed_queue_full > sheds);
  Alcotest.(check int) "answered remotely" 2 s.Client.remote_ok;
  Unix.close occupier

let test_client_deadline () =
  let slow input =
    Unix.sleepf 0.5;
    convert_real input
  in
  let config = { Server.default_config with Server.cache_capacity = 0 } in
  let server = start_server ~config ~inline:pool_only ~convert:slow () in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let c = Client.create ~config:quick_config (server_addr server) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.convert c ~deadline_ms:60 "0.1" with
  | Result.Error e ->
    Alcotest.(check string) "budget class" "budget" (Error.category e)
  | Result.Ok o -> Alcotest.failf "converted %S past the deadline" o.Client.output);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "deadline bounded the wait" true (elapsed < 0.45)

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
    Client.create ~config:quick_config (Addr.Tcp ("127.0.0.1", port))
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
      (Addr.Tcp ("127.0.0.1", port))
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
  let c = Client.create ~config:quick_config (server_addr server) in
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

   10k requests from 4 threads through one shared client per phase, with
   the local pipeline as the fallback tier.  The first half goes to the
   vandal endpoint (malformed / slow / partial replies); the second to
   a real in-process daemon with worker kills armed, one worker wedge
   scheduled, and a drain and restart on the same port a third of the
   way through.  The contract: every request ends in a correct
   conversion or a typed error of the fault-free class — zero wrong
   outputs, zero unexplained failures. *)

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
  let client_config =
    { quick_config with Client.max_attempts = 6; eject_cooldown_ms = 200 }
  in
  (* [count] requests from [first] on, through one client of [addr];
     [completed] lets a controller thread follow the phase *)
  let run_phase name addr ~first ~count completed =
    let c = Client.create ~config:client_config ~local:convert_real addr in
    let wrong = Atomic.make 0 in
    let wrong_class = Atomic.make 0 in
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
    let n_threads = 4 in
    let per_thread = count / n_threads in
    let worker t () =
      for i = 0 to per_thread - 1 do
        check_one (first + (t * per_thread) + i)
      done
    in
    let threads = List.init n_threads (fun t -> Thread.create (worker t) ()) in
    List.iter Thread.join threads;
    let s = Client.stats c in
    Client.close c;
    Printf.printf
      "chaos: %s: %d requests: remote-ok=%d local=%d errors=%d retries=%d \
       ejections=%d\n\
       %!"
      name (Atomic.get completed) s.Client.remote_ok s.Client.local_fallbacks
      s.Client.typed_errors s.Client.retries s.Client.ejections;
    Alcotest.(check int) (name ^ ": zero wrong conversions") 0 (Atomic.get wrong);
    Alcotest.(check int) (name ^ ": zero misclassified failures") 0
      (Atomic.get wrong_class);
    Alcotest.(check int) (name ^ ": every request accounted")
      (n_threads * per_thread)
      (s.Client.remote_ok + s.Client.local_fallbacks + s.Client.typed_errors);
    Alcotest.(check bool) (name ^ ": chaos actually bit (retries happened)")
      true (s.Client.retries > 0)
  in
  let half = requests / 2 in
  let vandal_port, stop_vandal = start_vandal () in
  Fun.protect ~finally:stop_vandal (fun () ->
      run_phase "vandal"
        (Addr.Tcp ("127.0.0.1", vandal_port))
        ~first:0 ~count:half (Atomic.make 0));
  let server_config =
    { Server.default_config with Server.jobs = 2; cache_capacity = 512 }
  in
  let server = ref (start_server ~config:server_config ()) in
  let port = Option.get (Server.port !server) in
  let count = requests - half in
  let completed = Atomic.make 0 in
  let restarted = Atomic.make false in
  let drained = ref None in
  (* net.daemon-restart: once a third of the phase is through, drain the
     daemon (in-flight requests finish, new ones shed draining), then
     bring it back on the same port.  The client marks it down and
     answers locally; the drain usually outlasts the rest of the phase,
     so "readmission" is where the daemon comes back. *)
  let controller =
    Thread.create
      (fun () ->
        let fired = ref false in
        while (not !fired) && Atomic.get completed < count do
          if Atomic.get completed > count / 3 && Faults.fires "net.daemon-restart"
          then begin
            let old = !server in
            stop_server old;
            drained := Some (Server.stats old).Server.supervisor;
            Thread.delay 0.02;
            server := start_server ~config:server_config ~port ();
            Atomic.set restarted true;
            fired := true
          end
          else Thread.delay 0.005
        done)
      ()
  in
  Fun.protect ~finally:(fun () -> stop_server !server) @@ fun () ->
  run_phase "daemon" (Addr.Tcp ("127.0.0.1", port)) ~first:half ~count
    completed;
  Thread.join controller;
  Alcotest.(check bool) "daemon restart happened" true (Atomic.get restarted);
  let healed name (sup : Service.Supervisor.stats) =
    Alcotest.(check int) name sup.crashes sup.respawns
  in
  (* a drain joins every worker, and a dying worker spawns its
     replacement before it exits *)
  Option.iter (healed "respawn healed every crash before the restart") !drained;
  (* on the live daemon, the last respawn can trail the last reply: wait
     for it (2 s bound) before comparing *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec settled () =
    let sup = (Server.stats !server).Server.supervisor in
    if
      sup.Service.Supervisor.respawns >= sup.Service.Supervisor.crashes
      || Unix.gettimeofday () > deadline
    then sup
    else begin
      Thread.delay 0.001;
      settled ()
    end
  in
  healed "respawn healed every crash" (settled ())

(* {2 kill -9 of a real bdprintd process} *)

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

(* The daemon dies mid-stream with no drain and no goodbye.  The
   request that finds it dead marks it down after [eject_threshold]
   failures, and every later request comes from the local tier with
   no remote attempt: the same bytes, and no further socket within the
   cooldown. *)
let test_kill9_failover () =
  let pid, ic, port = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      reap pid;
      close_in_noerr ic)
  @@ fun () ->
  let config = { quick_config with Client.eject_cooldown_ms = 10_000 } in
  let c =
    Client.create ~config ~local:convert_real (Addr.Tcp ("127.0.0.1", port))
  in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sockets_before_kill = ref 0 in
  for i = 1 to 200 do
    if i = 50 then begin
      sockets_before_kill := (Client.stats c).Client.reconnects;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    end;
    let input = Printf.sprintf "%.17g" (float i *. 1e-2) in
    let down = (Client.stats c).Client.ejections > 0 in
    match (Client.convert c input, convert_real input) with
    | Result.Ok o, Ok want ->
      Alcotest.(check string) (Printf.sprintf "request %d" i) want o.Client.output;
      if down then begin
        Alcotest.(check bool)
          (Printf.sprintf "request %d local while down" i)
          true (o.Client.tier = Client.Local);
        Alcotest.(check int)
          (Printf.sprintf "request %d without an attempt" i)
          0 o.Client.attempts
      end
    | Result.Error e, _ ->
      Alcotest.failf "request %d failed: %s" i (Error.to_string e)
    | Result.Ok o, Error e ->
      Alcotest.failf "request %d converted to %S, expected %s" i o.Client.output
        (Error.to_string e)
  done;
  let s = Client.stats c in
  Alcotest.(check int) "marked down once" 1 s.Client.ejections;
  Alcotest.(check int) "remote before the kill" 49 s.Client.remote_ok;
  Alcotest.(check int) "local from the kill on" 151 s.Client.local_fallbacks;
  Alcotest.(check bool)
    (Printf.sprintf "at most %d sockets after the kill (%d)"
       (config.Client.eject_threshold + 1)
       (s.Client.reconnects - !sockets_before_kill))
    true
    (s.Client.reconnects - !sockets_before_kill
    <= config.Client.eject_threshold + 1)

(* {2 CLI exit codes} *)

let bdprint_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdprint.exe"

(* Runs bdprint with [args] and no shell between, so an argument may
   hold a CR or be empty; returns the exit code, stdout and stderr. *)
let run_bdprint ?(stdin = "") args =
  let tmp ext = Filename.temp_file "bdprint_run" ext in
  let in_f = tmp ".in" and out_f = tmp ".out" and err_f = tmp ".err" in
  Out_channel.with_open_bin in_f (fun oc -> output_string oc stdin);
  let i = Unix.openfile in_f [ Unix.O_RDONLY ] 0 in
  let o = Unix.openfile out_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let e = Unix.openfile err_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let exe = bdprint_exe () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) i o e in
  List.iter Unix.close [ i; o; e ];
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  let slurp f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  Sys.remove in_f;
  let out = slurp out_f in
  (code, out, slurp err_f)

let test_connect_addr_exit_codes () =
  let run args =
    Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (bdprint_exe ()) args)
  in
  (* malformed --connect addresses: typed range error, exit 2, up front *)
  Alcotest.(check int) "port out of range" 2 (run "--connect 70000 0.5");
  Alcotest.(check int) "empty unix path" 2 (run "--connect unix: 0.5");
  Alcotest.(check int) "garbage address" 2 (run "--connect nonsense 0.5");
  Alcotest.(check int) "bad addr in list" 2 (run "--connect 7070,bogus 0.5");
  (* one daemon: a list is a malformed address, refused before the local
     fallback could answer *)
  let code, out, err = run_bdprint [ "--connect"; "7070,7071"; "0.5" ] in
  Alcotest.(check int) "address list exit" 2 code;
  Alcotest.(check string) "address list prints nothing" "" out;
  Alcotest.(check bool) ("address list named: " ^ err) true
    (contains err "range error: address: \"7070,7071\"");
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

(* bdprint --connect gives every input the answer in-process bdprint
   gives — stdout, stderr and exit code, in a stream and as arguments —
   including the inputs a CONV line cannot carry, which cost no round
   trip *)
let test_connect_matches_in_process () =
  let pid, ic, port = spawn_daemon () in
  Fun.protect
    ~finally:(fun () ->
      reap pid;
      close_in_noerr ic)
  @@ fun () ->
  let connect = [ "--connect"; Printf.sprintf "127.0.0.1:%d" port ] in
  let same name ?stdin args =
    let code, out, err = run_bdprint ?stdin (connect @ args) in
    let lcode, lout, lerr = run_bdprint ?stdin args in
    Alcotest.(check string) (name ^ ": stdout") lout out;
    Alcotest.(check string) (name ^ ": stderr") lerr err;
    Alcotest.(check int) (name ^ ": exit") lcode code
  in
  (* a syntax error echoes at most 60 bytes of its input *)
  let long = String.make 70 '1' ^ "x" in
  let stream =
    String.concat "\n"
      [ "0.1"; "TID=5 0.1"; "1e23"; "TID=0 0.1"; "0.1\rX"; "TID=7 1e23";
        "bogus"; long; "-2.5" ]
    ^ "\n"
  in
  same "stream" ~stdin:stream [ "--stdin" ];
  List.iter
    (fun a -> same (Printf.sprintf "argument %S" a) [ a ])
    [ " 0.1"; "0.1 "; ""; "0.1\rX"; "TID=5 0.1"; long ];
  same "arguments" [ "0.5"; " 0.1"; "bogus"; "1e23" ];
  (* the three valid lines and the two syntax errors a CONV line can
     carry went to the daemon, and nothing was retried *)
  let _, _, err = run_bdprint ~stdin:stream (connect @ [ "--stdin"; "--stats" ]) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " in " ^ err) true (contains err field))
    [ "remote-ok=3 "; "errors=6 "; "retries=0 " ]

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

(* A --jobs value past the runtime's domain limit is a usage error, as
   --jobs 0 is: refused before the daemon binds or spawns a domain, so
   nothing listens and no handshake is printed. *)
let test_jobs_cap () =
  let run jobs =
    let out_file = Filename.temp_file "bdprintd_jobs" ".out" in
    let st =
      Sys.command
        (Printf.sprintf "%s --jobs %d --listen 127.0.0.1:0 >%s 2>&1"
           (bdprintd_exe ()) jobs out_file)
    in
    let ic = open_in out_file in
    let out = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out_file;
    (st, out)
  in
  let st0, out0 = run 0 in
  let st, out = run 1000 in
  Alcotest.(check int) "usage error" 124 st0;
  Alcotest.(check int) "the exit code of --jobs 0" st0 st;
  Alcotest.(check bool) ("the usage error: " ^ out) true
    (contains out
       (Printf.sprintf "--jobs must be between 1 and %d"
          Service.Supervisor.max_jobs));
  Alcotest.(check string) "the message of --jobs 0" out0 out;
  Alcotest.(check bool) "no socket bound" false (contains out "listening on")

let () =
  Alcotest.run "client"
    [
      ( "addr",
        [
          Alcotest.test_case "parse" `Quick test_parse_addr;
        ] );
      ( "conversation",
        [
          Alcotest.test_case "basic + pooling" `Quick test_basic_and_pooling;
          Alcotest.test_case "determinative errors" `Quick
            test_determinative_errors;
          Alcotest.test_case "deadline" `Quick test_client_deadline;
          Alcotest.test_case "inputs a CONV line cannot carry" `Quick
            test_uncarried_inputs;
          Alcotest.test_case "an input over the budget" `Quick
            test_over_long_input;
          Alcotest.test_case "a remote budget error" `Quick
            test_remote_budget_error;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "local fallback" `Quick test_local_fallback_tier;
          Alcotest.test_case "no fallback = typed error" `Quick
            test_no_fallback_typed_error;
          Alcotest.test_case "readmission" `Quick test_readmission_after_restart;
          Alcotest.test_case "queue-full shed retried on backoff" `Quick
            test_queue_full_retried;
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
          Alcotest.test_case "--connect answers as in-process" `Quick
            test_connect_matches_in_process;
          Alcotest.test_case "bdprintd --listen" `Quick test_listen_addr;
          Alcotest.test_case "bdprintd --jobs past the domain limit" `Quick
            test_jobs_cap;
        ] );
    ]
