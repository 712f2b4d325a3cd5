(* Tests for the networked conversion daemon (lib/net): the Wire
   protocol grammar, the Memo cache (FIFO order, bounds under
   concurrency), and the Server engine end-to-end over real TCP sockets
   — verbs, both conversion routes (inline on the connection thread and
   the worker pool: order, STATS, traces, deadlines, the closed tier),
   explicit load shedding, protocol-error resynchronisation, graceful
   drain (no accepted request lost), and a chaos run with the network
   fault points and worker-kill armed, verifying zero wrong
   conversions.  Tests whose injected [convert] must see every request
   pass [pool_only] as the inline route. *)

module Wire = Net.Wire
module Memo = Net.Memo
module Server = Net.Server
module Line_reader = Net.Line_reader
module Error = Robust.Error
module Faults = Robust.Faults

(* bdprintd's own conversion; [pool_only] is the inline route of a
   server whose injected [convert] must see every request *)
let convert_real input = Net.Conversion.convert input
let pool_only _ = None

(* {2 Wire} *)

let test_wire_requests () =
  let ok s = Result.get_ok (Wire.parse_request s) in
  let errs s = Result.is_error (Wire.parse_request s) in
  Alcotest.(check bool) "conv" true
    (ok "CONV 0.1" = Wire.Conv { input = "0.1"; tid = 0 });
  Alcotest.(check bool) "conv trims" true
    (ok "CONV   0.1 " = Wire.Conv { input = "0.1"; tid = 0 });
  Alcotest.(check bool) "conv cr" true
    (ok "CONV 0.1\r" = Wire.Conv { input = "0.1"; tid = 0 });
  Alcotest.(check bool) "conv tid" true
    (ok "CONV TID=7 0.1" = Wire.Conv { input = "0.1"; tid = 7 });
  Alcotest.(check bool) "conv tid trims" true
    (ok "CONV  TID=7  0.1" = Wire.Conv { input = "0.1"; tid = 7 });
  Alcotest.(check bool) "conv tid-like input" true
    (ok "CONV TID" = Wire.Conv { input = "TID"; tid = 0 });
  Alcotest.(check bool) "batch" true
    (ok "BATCH 10" = Wire.Batch { count = 10; tid = 0 });
  Alcotest.(check bool) "batch tid" true
    (ok "BATCH 10 TID=9" = Wire.Batch { count = 10; tid = 9 });
  Alcotest.(check bool) "trace" true (ok "TRACE" = Wire.Trace_dump);
  Alcotest.(check bool) "deadline" true (ok "DEADLINE 50" = Wire.Deadline 50);
  Alcotest.(check bool) "ping" true (ok "PING" = Wire.Ping);
  Alcotest.(check bool) "healthz" true (ok "HEALTHZ" = Wire.Healthz);
  Alcotest.(check bool) "stats" true (ok "STATS" = Wire.Stats);
  Alcotest.(check bool) "metrics" true (ok "METRICS" = Wire.Metrics);
  Alcotest.(check bool) "quit" true (ok "QUIT" = Wire.Quit);
  Alcotest.(check bool) "empty conv" true (errs "CONV ");
  Alcotest.(check bool) "bad tid" true (errs "CONV TID=x 0.1");
  Alcotest.(check bool) "tid zero" true (errs "CONV TID=0 0.1");
  Alcotest.(check bool) "tid alone" true (errs "CONV TID=5");
  Alcotest.(check bool) "batch trailing junk" true (errs "BATCH 10 extra");
  Alcotest.(check bool) "trace junk" true (errs "TRACE x");
  (* render/parse round-trip of the request frames the client emits *)
  Alcotest.(check string) "render conv" "CONV 0.1\n" (Wire.render_conv "0.1");
  Alcotest.(check string) "render conv tid" "CONV TID=7 0.1\n"
    (Wire.render_conv ~tid:7 "0.1");
  Alcotest.(check string) "render batch tid" "BATCH 10 TID=9\n"
    (Wire.render_batch ~tid:9 10);
  Alcotest.(check bool) "batch 0" true (errs "BATCH 0");
  Alcotest.(check bool) "batch over" true
    (errs (Printf.sprintf "BATCH %d" (Wire.max_batch + 1)));
  Alcotest.(check bool) "batch junk" true (errs "BATCH ten");
  Alcotest.(check bool) "deadline negative" true (errs "DEADLINE -1");
  Alcotest.(check bool) "deadline over" true
    (errs (Printf.sprintf "DEADLINE %d" (Wire.max_deadline_ms + 1)));
  Alcotest.(check bool) "ping junk" true (errs "PING x");
  Alcotest.(check bool) "unknown" true (errs "FROB 1");
  Alcotest.(check bool) "empty" true (errs "")

let test_wire_replies () =
  let round r =
    let s = Wire.render_reply r in
    let line = String.sub s 0 (String.length s - 1) in
    Result.get_ok (Wire.parse_reply_line line)
  in
  Alcotest.(check bool) "ok" true (round (Wire.Converted "0.1") = Wire.Converted "0.1");
  Alcotest.(check bool) "err" true
    (round (Wire.Failed { cls = "syntax"; detail = "bad" })
    = Wire.Failed { cls = "syntax"; detail = "bad" });
  Alcotest.(check bool) "shed" true
    (round (Wire.Shed { reason = "queue-full"; retry_after_ms = None })
    = Wire.Shed { reason = "queue-full"; retry_after_ms = None });
  Alcotest.(check bool) "shed retry-after" true
    (round (Wire.Shed { reason = "overload"; retry_after_ms = Some 40 })
    = Wire.Shed { reason = "overload"; retry_after_ms = Some 40 });
  Alcotest.(check string) "shed rendering" "SHED overload retry-after-ms=40\n"
    (Wire.render_reply
       (Wire.Shed { reason = "overload"; retry_after_ms = Some 40 }));
  Alcotest.(check bool) "end" true
    (round (Wire.Batch_end { ok = 3; failed = 1; shed = 2 })
    = Wire.Batch_end { ok = 3; failed = 1; shed = 2 });
  Alcotest.(check bool) "pong" true (round Wire.Pong = Wire.Pong);
  Alcotest.(check bool) "bye" true (round Wire.Bye = Wire.Bye);
  (* READY/DRAINING attrs round-trip; the bare forms stay byte-identical
     to the pre-attr protocol *)
  Alcotest.(check string) "ready bare" "READY\n"
    (Wire.render_reply (Wire.Ready ""));
  Alcotest.(check bool) "ready attrs" true
    (round (Wire.Ready "uptime-s=3 version=1.0.0 wedges=0")
    = Wire.Ready "uptime-s=3 version=1.0.0 wedges=0");
  Alcotest.(check bool) "draining attrs" true
    (round (Wire.Draining "uptime-s=3") = Wire.Draining "uptime-s=3");
  (* newline injection cannot desynchronise the framing *)
  let s = Wire.render_reply (Wire.Failed { cls = "syntax"; detail = "a\nb" }) in
  Alcotest.(check int) "one newline" 1
    (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s);
  (* payload headers *)
  Alcotest.(check (option int)) "payload len" (Some 12)
    (Wire.payload_length "STATS 12");
  Alcotest.(check (option int)) "not payload" None (Wire.payload_length "OK 1")

(* {2 Memo} *)

let test_memo_basic () =
  let m = Memo.create ~capacity:8 in
  Alcotest.(check (option string)) "miss" None (Memo.find m "a");
  Memo.add m "a" "1";
  Alcotest.(check (option string)) "hit" (Some "1") (Memo.find m "a");
  Memo.add m "a" "2";
  Alcotest.(check (option string)) "replace" (Some "2") (Memo.find m "a");
  let s = Memo.stats m in
  Alcotest.(check int) "hits" 2 s.Memo.hits;
  Alcotest.(check int) "misses" 1 s.Memo.misses;
  Alcotest.(check int) "replace does not grow" 1 s.Memo.entries;
  (* overflow the cache: entries stay bounded, evictions counted *)
  for i = 0 to 99 do
    Memo.add m (string_of_int i) (string_of_int i)
  done;
  let s = Memo.stats m in
  Alcotest.(check bool) "bounded" true (s.Memo.entries <= s.Memo.capacity);
  Alcotest.(check bool) "evicted" true (s.Memo.evictions > 0)

(* FIFO over the whole table: after 100 distinct keys, a 64-entry cache
   holds exactly the last 64, and replacing a key keeps its place in the
   eviction order. *)
let test_memo_last_n () =
  let m = Memo.create ~capacity:64 in
  for i = 0 to 99 do
    Memo.add m (string_of_int i) (string_of_int i)
  done;
  let present i = Memo.find m (string_of_int i) <> None in
  for i = 0 to 99 do
    Alcotest.(check bool) (Printf.sprintf "key %d" i) (i >= 36) (present i)
  done;
  (* 36 is now the oldest key: replacing it must not save it *)
  Memo.add m "36" "new";
  Alcotest.(check (option string)) "replaced" (Some "new") (Memo.find m "36");
  Memo.add m "100" "100";
  Alcotest.(check bool) "replaced key still evicted first" false (present 36);
  Alcotest.(check bool) "next oldest kept" true (present 37);
  let s = Memo.stats m in
  Alcotest.(check int) "full" 64 s.Memo.entries;
  Alcotest.(check int) "evictions" 37 s.Memo.evictions;
  Alcotest.(check int) "replacements" 1 s.Memo.replacements

let test_memo_concurrent () =
  let m = Memo.create ~capacity:64 in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to 20_000 do
      let k = string_of_int (Random.State.int st 500) in
      match Memo.find m k with
      | Some _ -> ()
      | None -> Memo.add m k k
    done
  in
  let ds = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let s = Memo.stats m in
  Alcotest.(check bool) "bounded under concurrency" true
    (s.Memo.entries <= s.Memo.capacity);
  Alcotest.(check int) "accounting closes" (s.Memo.hits + s.Memo.misses) 80_000;
  (* every cached value is the exact one inserted for its key *)
  for i = 0 to 499 do
    let k = string_of_int i in
    match Memo.find m k with
    | Some v -> Alcotest.(check string) "value intact" k v
    | None -> ()
  done

(* Invariants under 8-domain contention: the capacity bound must hold
   at every moment (sampled live by a prowler domain while writers
   hammer the cache), and once writers are quiescent the counters must
   reconcile exactly: finds = hits + misses, adds = insertions +
   replacements, insertions = entries + evictions. *)
let test_memo_invariants_concurrent () =
  let cap = 32 in
  let m = Memo.create ~capacity:cap in
  let writers = 8 in
  let per_writer = 25_000 in
  let finds = Atomic.make 0 in
  let adds = Atomic.make 0 in
  let stop = Atomic.make false in
  let overflow_seen = Atomic.make 0 in
  let prowler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if (Memo.stats m).Memo.entries > cap then Atomic.incr overflow_seen
        done)
  in
  let worker seed () =
    let st = Random.State.make [| seed; 0xca5e |] in
    for _ = 1 to per_writer do
      (* mixed workload: ~half repeats (hits + replacements), ~half a
         wide keyspace (misses + insertions + evictions) *)
      let k = string_of_int (Random.State.int st 2_000) in
      Atomic.incr finds;
      match Memo.find m k with
      | Some _ ->
        if Random.State.bool st then begin
          Atomic.incr adds;
          Memo.add m k (k ^ "'")
        end
      | None ->
        Atomic.incr adds;
        Memo.add m k k
    done
  in
  let ds = List.init writers (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  Atomic.set stop true;
  Domain.join prowler;
  Alcotest.(check int) "bound held at every sample" 0
    (Atomic.get overflow_seen);
  let s = Memo.stats m in
  Alcotest.(check int) "finds reconcile" (Atomic.get finds)
    (s.Memo.hits + s.Memo.misses);
  Alcotest.(check int) "adds reconcile" (Atomic.get adds)
    (s.Memo.insertions + s.Memo.replacements);
  Alcotest.(check int) "insertions reconcile" s.Memo.insertions
    (s.Memo.entries + s.Memo.evictions);
  Alcotest.(check int) "full at quiescence" cap s.Memo.entries

(* {2 Server client harness} *)

(* A test client reads and writes through the daemon's own line reader
   and write loop. *)
type client = { fd : Unix.file_descr; reader : Line_reader.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  { fd; reader = Line_reader.create fd }

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let send c s = Line_reader.write c.fd s 0 (String.length s)

exception Closed_by_server

let rec recv_line c =
  match Line_reader.read c.reader with
  | Line_reader.Line s -> s
  | Interrupted -> recv_line c
  | Too_long { bytes; _ } -> Alcotest.failf "reply line of %d bytes" bytes
  | Last _ | Eof -> raise Closed_by_server

(* A payload body is [n] bytes and a newline: whole lines, until that
   many bytes are consumed. *)
let recv_body c n =
  let rec go lines consumed =
    if consumed > n then (List.rev lines, consumed)
    else
      let line = recv_line c in
      go (line :: lines) (consumed + String.length line + 1)
  in
  let lines, consumed = go [] 0 in
  Alcotest.(check int) "payload trailing newline" (n + 1) consumed;
  String.concat "\n" lines

let recv_reply c =
  let line = recv_line c in
  match Wire.parse_reply_line line with
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e
  | Ok (Wire.Payload { verb; _ }) ->
    let n =
      match Wire.payload_length line with
      | Some n -> n
      | None -> Alcotest.failf "payload header without length: %S" line
    in
    Wire.Payload { verb; body = recv_body c n }
  | Ok r -> r

let with_server ?config ?(inline = Net.Conversion.inline)
    ?(convert = convert_real) f =
  let server =
    match
      Server.start ?config ~inline ~convert (Net.Addr.Tcp ("127.0.0.1", 0))
    with
    | Result.Ok s -> s
    | Result.Error e -> Alcotest.failf "server start: %s" (Error.to_string e)
  in
  let port = Option.get (Server.port server) in
  Fun.protect
    ~finally:(fun () ->
      Server.drain server;
      ignore (Server.wait server))
    (fun () -> f server port)

(* {2 Server tests} *)

let test_server_verbs () =
  with_server (fun server port ->
      let c = connect port in
      send c "PING\n";
      Alcotest.(check bool) "pong" true (recv_reply c = Wire.Pong);
      send c "HEALTHZ\n";
      (match recv_reply c with
      | Wire.Ready attrs ->
        (* attr soup must carry the documented keys *)
        List.iter
          (fun key ->
            Alcotest.(check bool) ("healthz " ^ key) true
              (List.exists
                 (fun p ->
                   String.length p > String.length key
                   && String.sub p 0 (String.length key + 1) = key ^ "=")
                 (String.split_on_char ' ' attrs)))
          [ "uptime-s"; "version"; "wedges"; "memo-hit-rate" ]
      | r -> Alcotest.failf "expected READY, got %s" (Wire.render_reply r));
      send c "CONV 0.1\n";
      Alcotest.(check bool) "conv" true (recv_reply c = Wire.Converted "0.1");
      (* the table tier declines 5e22, whose shortest form lies exactly
         on the high end of its rounding range: it goes to the pool,
         whose answers the memo keeps *)
      send c "CONV 5e22\n";
      Alcotest.(check bool) "conv range-end tie" true
        (recv_reply c = Wire.Converted "5e22");
      send c "CONV 5e22\n";
      Alcotest.(check bool) "conv cached" true
        (recv_reply c = Wire.Converted "5e22");
      send c "CONV 1e23\n";
      Alcotest.(check bool) "conv sci" true (recv_reply c = Wire.Converted "1e23");
      send c "CONV bogus\n";
      (match recv_reply c with
      | Wire.Failed { cls = "syntax"; _ } -> ()
      | r -> Alcotest.failf "expected syntax error, got %s" (Wire.render_reply r));
      send c "DEADLINE 5000\n";
      Alcotest.(check bool) "deadline ack" true
        (recv_reply c = Wire.Converted "deadline=5000");
      send c "BATCH 3\n1.5\n2.5\nnope\n";
      Alcotest.(check bool) "b1" true (recv_reply c = Wire.Converted "1.5");
      Alcotest.(check bool) "b2" true (recv_reply c = Wire.Converted "2.5");
      (match recv_reply c with
      | Wire.Failed _ -> ()
      | r -> Alcotest.failf "expected failure, got %s" (Wire.render_reply r));
      (match recv_reply c with
      | Wire.Batch_end { ok = 2; failed = 1; shed = 0 } -> ()
      | r -> Alcotest.failf "bad END: %s" (Wire.render_reply r));
      send c "STATS\n";
      (match recv_reply c with
      | Wire.Payload { verb = "STATS"; body } ->
        Alcotest.(check bool) "stats json" true
          (String.length body > 2 && body.[0] = '{')
      | r -> Alcotest.failf "bad STATS: %s" (Wire.render_reply r));
      send c "METRICS\n";
      (match recv_reply c with
      | Wire.Payload { verb = "METRICS"; _ } -> ()
      | r -> Alcotest.failf "bad METRICS: %s" (Wire.render_reply r));
      send c "QUIT\n";
      Alcotest.(check bool) "bye" true (recv_reply c = Wire.Bye);
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "requests" 8 s.Server.requests;
      Alcotest.(check int) "cache hit" 1 s.Server.cache_hits;
      Alcotest.(check int) "proto clean" 0 s.Server.proto_errors)

let test_server_proto_resync () =
  with_server (fun server port ->
      let c = connect port in
      send c "FROB 1\n";
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; _ } -> ()
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      (* an oversized frame is discarded up to its newline and the
         stream stays in sync *)
      let budget = Robust.Budget.get () in
      let huge = String.make (budget.Robust.Budget.max_input_length + 256) 'x' in
      send c ("CONV " ^ huge ^ "\n");
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; detail } ->
        Alcotest.(check string) "too long" "frame-too-long" detail
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      send c "CONV 0.5\n";
      Alcotest.(check bool) "resynced" true (recv_reply c = Wire.Converted "0.5");
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "proto errors" 2 s.Server.proto_errors)

(* Regression (stream resync with pipelined requests): buffered
   requests sitting behind a malformed frame must each get their own
   reply, one-for-one and in order — the ERR proto answer must not eat,
   duplicate or reorder the replies of the requests queued after it. *)
let test_server_pipelined_proto_resync () =
  with_server (fun server port ->
      let c = connect port in
      (* one write, five frames: good, bad verb, good, bad again, good *)
      send c "CONV 0.1\nFROB 1\nCONV 0.5\nGARBAGE ###\nCONV 1.5\nPING\n";
      Alcotest.(check bool) "r1" true (recv_reply c = Wire.Converted "0.1");
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; _ } -> ()
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      Alcotest.(check bool) "r3" true (recv_reply c = Wire.Converted "0.5");
      (match recv_reply c with
      | Wire.Failed { cls = "proto"; _ } -> ()
      | r -> Alcotest.failf "expected proto error, got %s" (Wire.render_reply r));
      Alcotest.(check bool) "r5" true (recv_reply c = Wire.Converted "1.5");
      Alcotest.(check bool) "r6" true (recv_reply c = Wire.Pong);
      (* nothing further is buffered: a fresh request gets exactly one
         fresh reply *)
      send c "CONV 2.5\n";
      Alcotest.(check bool) "r7" true (recv_reply c = Wire.Converted "2.5");
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "both proto errors counted" 2 s.Server.proto_errors)

(* Whether this run's table tier is open, and with it the inline route:
   BDPRINT_NO_FASTPATH=1, BDPRINT_FORCE_PURE=1 and armed fault points
   close it. *)
let tier_open () =
  Dragon.Free_format.tier_open ~base:10 ~mode:Fp.Rounding.To_nearest_even
    Fp.Format_spec.binary64

(* Every span site a traced daemon request crosses lands under its own
   trace id, with its stage name and note, on either route.  0.1
   (TID=7) is answered inline: the connection thread's memo lookup, its
   fastpath span noted "inline", the wire write and the request root,
   and nothing of the pool.  1e23 (TID=8) is a table-tier decline (its
   shortest form lies exactly on the high end of its rounding range):
   the inline attempt noted "declined", then the queue wait that the
   submitting thread opens and the worker closes, and the worker's
   service and pipeline spans.  With the tier closed, both take the
   second path.  The connection thread closes wire-write and request
   only after it writes the reply, so the PONG that follows on the same
   connection proves both are recorded. *)
let test_server_trace_spans () =
  let module Tracing = Telemetry.Tracing in
  let was = Tracing.enabled () in
  Tracing.clear ();
  Tracing.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tracing.set_enabled was;
      Tracing.clear ())
  @@ fun () ->
  with_server (fun _server port ->
      let c = connect port in
      send c "CONV TID=7 0.1\n";
      Alcotest.(check bool) "conv 0.1" true (recv_reply c = Wire.Converted "0.1");
      send c "CONV TID=8 1e23\n";
      Alcotest.(check bool) "conv 1e23" true
        (recv_reply c = Wire.Converted "1e23");
      send c "PING\n";
      Alcotest.(check bool) "pong" true (recv_reply c = Wire.Pong);
      close c);
  (* (stage, args tail) of every span under trace id [id]; the tail is
     [,"note":"..."] or empty *)
  let json = Tracing.to_chrome_json ~pid:1 () in
  let spans id =
    String.split_on_char '\n' json
    |> List.filter_map (fun line ->
           try
             Scanf.sscanf line
               ("{\"name\":\"%[^\"]\",\"cat\":\"bdprint\",\"ph\":\"X\","
               ^^ "\"ts\":%_f,\"dur\":%_f,\"pid\":1,\"tid\":%d,"
               ^^ "\"args\":{\"dom\":%_d%[^}]")
               (fun name tid tail -> if tid = id then Some (name, tail) else None)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let noted note = Printf.sprintf {|,"note":"%s"|} note in
  let expect id spans present absent =
    List.iter
      (fun span ->
        Alcotest.(check bool)
          (Printf.sprintf "%s under id %d" (fst span) id)
          true
          (if snd span = "" then List.mem_assoc (fst span) spans
           else List.mem span spans))
      present;
    List.iter
      (fun stage ->
        Alcotest.(check bool)
          (Printf.sprintf "no %s under id %d" stage id)
          false (List.mem_assoc stage spans))
      absent
  in
  let ends = [ ("wire-write", ""); ("request", "") ] in
  let pool tier =
    [
      ("memo-lookup", noted "miss");
      ("fastpath", noted "declined");
      ("queue-wait", "");
      ("worker-service", "");
    ]
    @ List.map (fun stage -> (stage, "")) tier
    @ (("render", "") :: ends)
  in
  let exact = [ "boundaries"; "scale"; "generate" ] in
  if tier_open () then begin
    expect 7 (spans 7)
      ([ ("memo-lookup", noted "miss"); ("fastpath", noted "inline") ] @ ends)
      [ "queue-wait"; "worker-service" ];
    (* the worker's own table-tier attempt on 1e23 is uncertain too *)
    expect 8 (spans 8) (pool ("fastpath" :: exact)) []
  end
  else begin
    expect 7 (spans 7) (pool exact) [];
    expect 8 (spans 8) (pool exact) []
  end

(* Adaptive admission: with a known-slow service and a deadline shorter
   than the projected queue wait, the daemon refuses up front with
   [SHED overload] and a retry-after hint instead of converting a reply
   that would arrive dead. *)
let test_server_overload_shed () =
  let slow input =
    Unix.sleepf 0.1;
    convert_real input
  in
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      admission_capacity = 64;
      cache_capacity = 0;
    }
  in
  with_server ~config ~inline:pool_only ~convert:slow (fun server port ->
      let a = connect port in
      (* warm the service-time EWMA with one completed conversion *)
      send a "CONV 0.1\n";
      Alcotest.(check bool) "warmup" true (recv_reply a = Wire.Converted "0.1");
      (* occupy the only worker... *)
      send a "CONV 0.5\n";
      Thread.delay 0.02;
      (* ...then ask for a 30 ms answer while ~100 ms of work is queued *)
      let b = connect port in
      send b "DEADLINE 30\nCONV 1.5\n";
      Alcotest.(check bool) "ack" true (recv_reply b = Wire.Converted "deadline=30");
      (match recv_reply b with
      | Wire.Shed { reason = "overload"; retry_after_ms = Some ms } ->
        Alcotest.(check bool) "positive hint" true (ms >= 1)
      | r -> Alcotest.failf "expected SHED overload, got %s" (Wire.render_reply r));
      Alcotest.(check bool) "queued conv fine" true
        (recv_reply a = Wire.Converted "0.5");
      close a;
      close b;
      let s = Server.stats server in
      Alcotest.(check bool) "overload shed counted" true
        (s.Server.shed_overload >= 1))

(* Every answer the pool computed is memoized: a repeat is a cache hit.
   1e23 is pool-bound, since the table tier cannot certify a shortest
   form on the end of the rounding range.  STATS keeps its cache_skips
   key at a constant 0, which perfbench's traced daemon run reads. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_server_memo_hit () =
  with_server (fun server port ->
      let c = connect port in
      send c "CONV 1e23\n";
      Alcotest.(check bool) "a" true (recv_reply c = Wire.Converted "1e23");
      send c "CONV 1e23\n";
      Alcotest.(check bool) "b" true (recv_reply c = Wire.Converted "1e23");
      send c "STATS\n";
      (match recv_reply c with
      | Wire.Payload { verb = "STATS"; body } ->
        Alcotest.(check bool) "stats carries cache_skips" true
          (contains body "\"cache_skips\":0");
        Alcotest.(check bool) "stats counts the hit" true
          (contains body "\"cache_hits\":1")
      | r -> Alcotest.failf "bad STATS: %s" (Wire.render_reply r));
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "second is a cache hit" 1 s.Server.cache_hits;
      Alcotest.(check int) "one entry" 1 s.Server.cache.Memo.entries)

(* A worker killed holding a request does not change its answer: the
   request runs again and comes back OK with the pipeline's bytes.  The
   armed fault closes the inline route, so 0.1 reaches the pool. *)
let test_server_worker_kill () =
  Faults.reset_call_counts ();
  Faults.arm_at ~call:1 "service.worker-kill";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  with_server (fun server port ->
      let c = connect port in
      send c "CONV 0.1\n";
      Alcotest.(check bool) "OK 0.1" true (recv_reply c = Wire.Converted "0.1");
      close c;
      let sup = (Server.stats server).Server.supervisor in
      Alcotest.(check int) "one crash" 1 sup.Service.Supervisor.crashes;
      Alcotest.(check int) "one re-run" 1 sup.Service.Supervisor.retries)

(* Watchdog: a wedged worker (alive but stalled far past the request's
   deadline) must not capture its request forever — the watchdog answers
   with a structured budget timeout, replaces the worker, and the next
   request converts normally. *)
let test_server_worker_wedge () =
  Faults.reset_call_counts ();
  Faults.arm_at ~call:1 "service.worker-wedge";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      cache_capacity = 0;
      watchdog =
        Some
          {
            Service.Supervisor.poll_ms = 10;
            grace_ms = 50;
            stuck_ms = 10_000;
          };
    }
  in
  with_server ~config (fun server port ->
      let c = connect port in
      send c "DEADLINE 100\nCONV 0.1\n";
      Alcotest.(check bool) "ack" true
        (recv_reply c = Wire.Converted "deadline=100");
      (match recv_reply c with
      | Wire.Failed { cls = "budget"; _ } -> ()
      | r ->
        Alcotest.failf "expected budget timeout from the watchdog, got %s"
          (Wire.render_reply r));
      (* the wedged worker was replaced: the stream keeps working *)
      send c "DEADLINE 0\nCONV 0.5\n";
      Alcotest.(check bool) "clear ack" true
        (recv_reply c = Wire.Converted "deadline=0");
      Alcotest.(check bool) "replacement converts" true
        (recv_reply c = Wire.Converted "0.5");
      close c;
      let s = Server.stats server in
      Alcotest.(check bool) "wedge detected" true
        (s.Server.supervisor.Service.Supervisor.wedges >= 1))

(* Replies go straight to their own connection: with two workers, a
   request wedged on connection A (the injected 0.4 s stall, no
   deadline, so the watchdog stays out of it) does not hold up a
   conversion on connection B, which the idle worker answers at once.
   A's reply still comes, once the stall ends. *)
let test_server_reply_not_held () =
  Faults.disarm_all ();
  Faults.reset_call_counts ();
  Faults.arm_at ~call:1 "service.worker-wedge";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  let config =
    { Server.default_config with Server.jobs = 2; cache_capacity = 0 }
  in
  with_server ~config (fun _ port ->
      let a = connect port and b = connect port in
      send a "CONV 0.1\n";
      (* the first dequeue consults the fault point: A's request is the
         wedged one *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        Faults.call_count "service.worker-wedge" < 1
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.001
      done;
      let t0 = Unix.gettimeofday () in
      send b "CONV 6.25\n";
      let reply_b = recv_reply b in
      let rtt_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Alcotest.(check bool) "B converted" true (reply_b = Wire.Converted "6.25");
      Alcotest.(check bool)
        (Printf.sprintf "B answered inside A's stall (%.1f ms < 200 ms)" rtt_ms)
        true (rtt_ms < 200.);
      Alcotest.(check bool) "A converted after its stall" true
        (recv_reply a = Wire.Converted "0.1");
      close a;
      close b)

let test_server_shedding () =
  (* one worker, one admission slot, slow conversions: concurrent
     clients must get explicit SHED queue-full replies, never silence *)
  let slow input =
    Unix.sleepf 0.15;
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
  with_server ~config ~inline:pool_only ~convert:slow (fun server port ->
      let n = 6 in
      let replies = Array.make n Wire.Pong in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let c = connect port in
                send c "CONV 0.125\n";
                replies.(i) <- recv_reply c;
                close c)
              ())
      in
      List.iter Thread.join threads;
      let ok = ref 0 and shed = ref 0 in
      Array.iter
        (function
          | Wire.Converted "0.125" -> incr ok
          | Wire.Shed { reason = "queue-full"; retry_after_ms } ->
            (* the shed must carry a machine-readable retry hint *)
            Alcotest.(check bool) "retry-after present" true
              (match retry_after_ms with Some ms -> ms >= 1 | None -> false);
            incr shed
          | r -> Alcotest.failf "unexpected reply %s" (Wire.render_reply r))
        replies;
      Alcotest.(check int) "every request answered" n (!ok + !shed);
      Alcotest.(check bool) "some converted" true (!ok >= 1);
      Alcotest.(check bool) "some shed" true (!shed >= 1);
      let s = Server.stats server in
      Alcotest.(check int) "sheds counted" !shed s.Server.shed_queue_full)

let test_server_drain_loses_nothing () =
  let slowish input =
    Unix.sleepf 0.02;
    convert_real input
  in
  let config =
    { Server.default_config with Server.jobs = 2; cache_capacity = 0 }
  in
  with_server ~config ~inline:pool_only ~convert:slowish (fun server port ->
      let n_threads = 4 in
      let sent = Array.make n_threads 0 in
      let answered = Array.make n_threads 0 in
      let shed = Array.make n_threads 0 in
      let wrong = Array.make n_threads 0 in
      let threads =
        List.init n_threads (fun i ->
            Thread.create
              (fun () ->
                let c = connect port in
                (try
                   for _ = 1 to 200 do
                     send c "CONV 0.375\n";
                     sent.(i) <- sent.(i) + 1;
                     match recv_reply c with
                     | Wire.Converted "0.375" -> answered.(i) <- answered.(i) + 1
                     | Wire.Shed _ -> shed.(i) <- shed.(i) + 1
                     | _ -> wrong.(i) <- wrong.(i) + 1
                   done
                 with Closed_by_server | Unix.Unix_error (_, _, _) -> ());
                close c)
              ())
      in
      Thread.delay 0.3;
      Server.drain server;
      let final = Server.wait server in
      List.iter Thread.join threads;
      let total a = Array.fold_left ( + ) 0 a in
      (* serial request/reply per connection: every request either got a
         reply or hit EOF after drain shut the connection down — but a
         request the server ADMITTED always got its reply first *)
      Alcotest.(check int) "no wrong replies" 0 (total wrong);
      Alcotest.(check bool) "work happened before drain" true
        (total answered > 0);
      Alcotest.(check int) "server answered every admitted request"
        (final.Server.replies_ok + final.Server.replies_failed
       + final.Server.shed_queue_full + final.Server.shed_overload
       + final.Server.shed_draining)
        final.Server.requests;
      (* the client-observed gap (sent but unanswered) is only ever the
         last in-flight request of each connection, cut by EOF *)
      Alcotest.(check bool) "bounded loss at EOF" true
        (total sent - (total answered + total shed) <= n_threads))

let test_server_chaos () =
  let requests =
    match Sys.getenv_opt "NET_CHAOS_REQUESTS" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
    | None -> 10_000
  in
  Faults.arm ~probability:0.01 "service.worker-kill";
  Faults.arm ~probability:0.01 "net.slow-client";
  Faults.arm ~probability:0.02 "net.partial-write";
  (* any failure below reproduces with this line's seed + schedule *)
  Printf.printf "chaos: reproduce with BDPRINT_FAULTS_SEED=%d BDPRINT_FAULTS=%S\n%!"
    Faults.seed (Faults.spec_string ());
  Fun.protect ~finally:Faults.disarm_all @@ fun () ->
  let config =
    {
      Server.default_config with
      Server.jobs = 3;
      admission_capacity = 64;
      cache_capacity = 512;
    }
  in
  with_server ~config (fun server port ->
      (* hot values exercise the cache; random doubles exercise the
         pipeline; expected outputs are computed fault-free in this
         thread (the armed points only fire in workers / write paths) *)
      let hot = [| "0"; "1"; "0.5"; "0.1"; "1e23"; "-2.5" |] in
      let st = Random.State.make [| Faults.seed; 0xbdc0de; requests |] in
      let fresh_input () =
        if Random.State.int st 4 = 0 then hot.(Random.State.int st 6)
        else
          let f = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
          match classify_float f with
          | FP_nan | FP_infinite -> "0.25"
          | _ -> Printf.sprintf "%.17g" f
      in
      let n_threads = 4 in
      let per_thread = requests / n_threads in
      let wrong = Atomic.make 0 in
      let ok = Atomic.make 0 in
      let shed = Atomic.make 0 in
      let failed = Atomic.make 0 in
      let proto = Atomic.make 0 in
      let check_outcome input reply =
        let expected = convert_real input in
        match (reply, expected) with
        | Wire.Converted out, Ok e ->
          if out <> e then Atomic.incr wrong else Atomic.incr ok
        | Wire.Failed _, Error _ -> Atomic.incr failed
        | Wire.Shed _, _ -> Atomic.incr shed
        | _, _ -> Atomic.incr wrong
      in
      let client_loop tid () =
        let c = connect port in
        let stc = Random.State.make [| tid; 42 |] in
        for i = 1 to per_thread do
          let input = fresh_input () in
          (* the malformed-frame fault: inject garbage, expect ERR proto,
             stream stays usable *)
          if Faults.fires "net.malformed-frame" then begin
            send c "GARBAGE ###\n";
            match recv_reply c with
            | Wire.Failed { cls = "proto"; _ } -> Atomic.incr proto
            | r ->
              Alcotest.failf "malformed frame got %s" (Wire.render_reply r)
          end;
          send c ("CONV " ^ input ^ "\n");
          check_outcome input (recv_reply c);
          if i mod 500 = 0 then ignore (Random.State.int stc 2)
        done;
        send c "QUIT\n";
        (match recv_reply c with
        | Wire.Bye -> ()
        | r -> Alcotest.failf "bad BYE: %s" (Wire.render_reply r));
        close c
      in
      (* arm the client-side fault too *)
      Faults.arm ~probability:0.01 "net.malformed-frame";
      let threads =
        List.init n_threads (fun i -> Thread.create (client_loop i) ())
      in
      List.iter Thread.join threads;
      (* the daemon survived: still answering *)
      let c = connect port in
      send c "PING\n";
      Alcotest.(check bool) "daemon alive" true (recv_reply c = Wire.Pong);
      close c;
      Alcotest.(check int) "zero wrong conversions" 0 (Atomic.get wrong);
      let answered =
        Atomic.get ok + Atomic.get shed + Atomic.get failed
      in
      Alcotest.(check int) "every request answered explicitly"
        (n_threads * per_thread) answered;
      let s = Server.stats server in
      Alcotest.(check int) "proto errors counted" (Atomic.get proto)
        s.Server.proto_errors;
      Alcotest.(check bool) "chaos actually happened" true
        (s.Server.supervisor.Service.Supervisor.crashes > 0
        || Atomic.get proto > 0);
      (* a crashing worker re-queues its request before it spawns its
         replacement, so the last respawn can trail the last reply:
         wait for it (2 s bound) before comparing *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec settled () =
        let sup = (Server.stats server).Server.supervisor in
        if
          sup.Service.Supervisor.respawns >= sup.Service.Supervisor.crashes
          || Unix.gettimeofday () > deadline
        then sup
        else begin
          Thread.delay 0.001;
          settled ()
        end
      in
      let sup = settled () in
      Alcotest.(check int) "respawn healed every crash"
        sup.Service.Supervisor.crashes sup.Service.Supervisor.respawns)

(* The flight recorder's admit event comes from the supervisor, under
   the seq its service-start, service-end and crash events carry.  Two
   connections convert at once, so their requests interleave on the
   way in; every service-start still has the admit of its own input. *)
let test_server_flight_admit_ids () =
  let module Flight = Telemetry.Flight in
  Flight.clear ();
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.clear ())
  @@ fun () ->
  let per_conn = 30 in
  let config = { Server.default_config with Server.cache_capacity = 0 } in
  with_server ~config ~inline:pool_only (fun _server port ->
      let client k () =
        let c = connect port in
        for i = 1 to per_conn do
          let input = Printf.sprintf "%d.%d" k i in
          send c ("CONV " ^ input ^ "\n");
          match recv_reply c with
          | Wire.Converted _ -> ()
          | r -> Alcotest.failf "CONV %s: %s" input (Wire.render_reply r)
        done;
        close c
      in
      List.iter Thread.join
        (List.init 2 (fun k -> Thread.create (client (k + 1)) ())));
  let events =
    String.split_on_char '\n' (Flight.to_jsonl ())
    |> List.filter_map (fun line ->
           try
             Scanf.sscanf line
               "{\"seq\":%_d,\"t_us\":%_d,\"dom\":%_d,\"req\":%d,\"kind\":\"%[^\"]\",\"detail\":\"%[^\"]\"}"
               (fun req kind detail -> Some (req, kind, detail))
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let admits =
    List.filter_map
      (fun (req, kind, input) -> if kind = "admit" then Some (req, input) else None)
      events
  in
  let starts =
    List.filter_map
      (fun (req, kind, detail) ->
        if kind = "service-start" then
          Scanf.sscanf_opt detail "worker=%_d input=%s" (fun input -> (req, input))
        else None)
      events
  in
  Alcotest.(check int) "one service-start per request" (2 * per_conn)
    (List.length starts);
  List.iter
    (fun (req, input) ->
      Alcotest.(check bool)
        (Printf.sprintf "service-start req=%d input=%s has its admit" req input)
        true
        (List.mem (req, input) admits))
    starts

let test_server_deadline () =
  (* a 1 ms deadline on a slow conversion fails with a budget error *)
  let slow input =
    Unix.sleepf 0.05;
    Robust.Budget.check_deadline ();
    convert_real input
  in
  let config = { Server.default_config with Server.cache_capacity = 0 } in
  with_server ~config ~inline:pool_only ~convert:slow (fun _server port ->
      let c = connect port in
      send c "DEADLINE 1\nCONV 0.1\n";
      Alcotest.(check bool) "ack" true (recv_reply c = Wire.Converted "deadline=1");
      (match recv_reply c with
      | Wire.Failed { cls = "budget"; _ } -> ()
      | r -> Alcotest.failf "expected budget timeout, got %s" (Wire.render_reply r));
      send c "DEADLINE 0\nCONV 0.1\n";
      Alcotest.(check bool) "clear ack" true
        (recv_reply c = Wire.Converted "deadline=0");
      Alcotest.(check bool) "no deadline converts" true
        (recv_reply c = Wire.Converted "0.1");
      close c)

(* The value of [key] in a STATS body. *)
let stat body key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length pat and nb = String.length body in
  let rec go i =
    if i + n > nb then Alcotest.failf "no %s in STATS: %s" key body
    else if String.sub body i n = pat then
      Scanf.sscanf (String.sub body (i + n) (nb - i - n)) "%d" Fun.id
    else go (i + 1)
  in
  go 0

let stats_body c =
  send c "STATS\n";
  match recv_reply c with
  | Wire.Payload { verb = "STATS"; body } -> body
  | r -> Alcotest.failf "bad STATS: %s" (Wire.render_reply r)

(* Both routes on one connection, pipelined in one write.  0.1,
   123.456 and the exact decimal 3.75 are answered inline; the torture
   line, past 19 digits and between two doubles, is a reader decline;
   5e22 and 1e23, whose shortest forms lie exactly on the high ends of
   their rounding ranges, are table-tier declines.  The replies come
   back in the order sent, with the full conversion's bytes. *)
let test_server_two_routes_in_order () =
  let torture = "9007199254740993.000000000000000000001" in
  let inputs = [ "0.1"; torture; "5e22"; "123.456"; "1e23"; "3.75" ] in
  let table x =
    Dragon.Printer.print_table ~mode:Fp.Rounding.To_nearest_even
      ~notation:Dragon.Render.Auto x
  in
  Alcotest.(check bool) "the torture line is a reader decline" true
    (Float.is_nan (Reader.Fast.tiers torture));
  List.iter
    (fun input ->
      Alcotest.(check string) (input ^ " is a table-tier decline") ""
        (table (Reader.Fast.tiers input)))
    [ "5e22"; "1e23" ];
  let inline = if tier_open () then 3 else 0 in
  (* The expected bytes come first: a conversion on this thread while
     the connection thread converts would share the main domain's
     table-tier pool, whose busy guard would send an inline answer to
     the pool. *)
  let wants =
    List.map (fun input -> Result.get_ok (convert_real input)) inputs
  in
  with_server (fun server port ->
      let c = connect port in
      send c
        (String.concat "" (List.map (fun input -> "CONV " ^ input ^ "\n") inputs));
      List.iter2
        (fun input want ->
          Alcotest.(check bool) ("in order: " ^ input) true
            (recv_reply c = Wire.Converted want))
        inputs wants;
      (* an inline answer is counted after its reply is written; the
         PONG proves the thread has moved on *)
      send c "PING\n";
      Alcotest.(check bool) "pong" true (recv_reply c = Wire.Pong);
      close c;
      let s = Server.stats server in
      Alcotest.(check int) "answered inline" inline s.Server.inline;
      Alcotest.(check int) "sent to the pool" (6 - inline)
        s.Server.supervisor.Service.Supervisor.submitted;
      Alcotest.(check int) "all ok" 6 s.Server.replies_ok)

(* An inline answer takes no worker and no memo entry: STATS' inline
   count rises by one per answer, and sup_submitted and cache_entries
   stay put.  Zeros are answered inline too, in the exact tier's bytes.
   With the tier closed, all four go to the pool instead. *)
let test_server_inline_stats () =
  with_server (fun _server port ->
      let c = connect port in
      let before = stats_body c in
      let cases = [ ("0.1", "0.1"); ("0", "0"); ("-0.0", "-0"); ("0e5", "0") ] in
      List.iter
        (fun (input, want) ->
          send c ("CONV " ^ input ^ "\n");
          Alcotest.(check bool) ("conv " ^ input) true
            (recv_reply c = Wire.Converted want))
        cases;
      let after = stats_body c in
      close c;
      let delta key = stat after key - stat before key in
      let n = List.length cases in
      let inline = if tier_open () then n else 0 in
      Alcotest.(check int) "inline" inline (delta "inline");
      Alcotest.(check int) "sup_submitted" (n - inline) (delta "sup_submitted");
      Alcotest.(check int) "cache_entries" (n - inline) (delta "cache_entries");
      Alcotest.(check int) "replies_ok" n (delta "replies_ok"))

(* An inline request takes its admission slot before it converts, so a
   drain that starts while it converts waits for its reply instead of
   shedding it.  The injected inline route stalls 0.4 s once begun. *)
let test_server_drain_waits_for_inline () =
  let started = Atomic.make false in
  let slow_inline input =
    Atomic.set started true;
    Thread.delay 0.4;
    Result.to_option (convert_real input)
  in
  with_server ~inline:slow_inline (fun server port ->
      let c = connect port in
      send c "CONV 0.1\n";
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.001
      done;
      Server.drain server;
      Alcotest.(check bool) "answered across the drain" true
        (recv_reply c = Wire.Converted "0.1");
      let final = Server.wait server in
      close c;
      Alcotest.(check int) "answered inline" 1 final.Server.inline;
      Alcotest.(check int) "not shed" 0 final.Server.shed_draining;
      Alcotest.(check int) "nothing submitted" 0
        final.Server.supervisor.Service.Supervisor.submitted)

(* A request whose deadline has already expired goes to the pool, the
   one place that answers deadline errors: under a 0 ms default
   deadline (bdprintd --deadline-ms 0) both routes' inputs get
   ERR budget. *)
let test_server_deadline_zero () =
  let config =
    { Server.default_config with Server.default_deadline_ms = Some 0 }
  in
  with_server ~config (fun server port ->
      let c = connect port in
      List.iter
        (fun input ->
          send c ("CONV " ^ input ^ "\n");
          match recv_reply c with
          | Wire.Failed { cls = "budget"; _ } -> ()
          | r -> Alcotest.failf "CONV %s: %s" input (Wire.render_reply r))
        [ "0.1"; "1e23" ];
      close c;
      Alcotest.(check int) "none inline" 0 (Server.stats server).Server.inline)

(* With the table tier closed, every request goes to the pool, a zero
   too: the switch BDPRINT_NO_FASTPATH=1 turns off, and any armed fault
   point, even one that never fires. *)
let test_server_tier_closed () =
  let all_pooled label =
    with_server (fun server port ->
        let c = connect port in
        List.iter
          (fun input ->
            send c ("CONV " ^ input ^ "\n");
            Alcotest.(check bool) (label ^ ": " ^ input) true
              (recv_reply c = Wire.Converted input))
          [ "0.1"; "123.456"; "0" ];
        close c;
        let s = Server.stats server in
        Alcotest.(check int) (label ^ ": none inline") 0 s.Server.inline;
        Alcotest.(check int) (label ^ ": all submitted") 3
          s.Server.supervisor.Service.Supervisor.submitted)
  in
  let was = Dragon.Printer.fastpath_enabled () in
  Dragon.Printer.set_fastpath_enabled false;
  Fun.protect
    ~finally:(fun () -> Dragon.Printer.set_fastpath_enabled was)
    (fun () -> all_pooled "no fast path");
  Faults.arm ~probability:0.0 "nat.divmod";
  Fun.protect ~finally:Faults.disarm_all (fun () -> all_pooled "armed fault")

(* {2 The bdprintd binary} *)

(* A bdprintd subprocess with [args] and [env] added to this process's
   environment, one connection to it, and [f] on that connection. *)
let with_daemon ?(env = [||]) args f =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/bdprintd.exe"
  in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process_env exe
      (Array.append [| exe; "--listen"; "127.0.0.1:0"; "--jobs"; "1" |] args)
      (Array.append env (Unix.environment ()))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] pid)
       with Unix.Unix_error (_, _, _) -> ());
      close_in_noerr ic)
  @@ fun () ->
  (* startup handshake: "bdprintd: listening on 127.0.0.1:PORT" *)
  let line = input_line ic in
  let port =
    match String.rindex_opt line ':' with
    | Some i ->
      int_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> Alcotest.failf "bad handshake %S" line
  in
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

(* bdprintd's own conversion function: a hex literal must take the
   same route as under bdprint --stdin, which prints 1.0 for "+0x1p0"
   and reports no hex digits in "0x". *)
let test_daemon_hex_routing () =
  with_daemon [||] @@ fun c ->
  send c "CONV +0x1p0\n";
  (match recv_reply c with
  | Wire.Converted "1.0" -> ()
  | r -> Alcotest.failf "CONV +0x1p0: %s" (Wire.render_reply r));
  send c "CONV 0x\n";
  match recv_reply c with
  | Wire.Failed { cls = "syntax"; detail } ->
    Alcotest.(check string) "CONV 0x detail"
      {|syntax error: no hex digits in "0x"|} detail
  | r -> Alcotest.failf "CONV 0x: %s" (Wire.render_reply r)

(* bdprintd --deadline-ms 0 answers ERR budget for 0.1, an inline input
   whose deadline expired before it could convert. *)
let test_daemon_deadline_zero () =
  with_daemon [| "--deadline-ms"; "0" |] @@ fun c ->
  send c "CONV 0.1\n";
  match recv_reply c with
  | Wire.Failed { cls = "budget"; _ } -> ()
  | r -> Alcotest.failf "CONV 0.1: %s" (Wire.render_reply r)

(* BDPRINT_NO_FASTPATH=1 closes the table tier, and with it the inline
   route: the daemon's worker answers 0.1. *)
let test_daemon_no_fastpath () =
  with_daemon ~env:[| "BDPRINT_NO_FASTPATH=1" |] [||] @@ fun c ->
  send c "CONV 0.1\n";
  Alcotest.(check bool) "conv" true (recv_reply c = Wire.Converted "0.1");
  let body = stats_body c in
  Alcotest.(check int) "none inline" 0 (stat body "inline");
  Alcotest.(check int) "submitted" 1 (stat body "sup_submitted")

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "requests" `Quick test_wire_requests;
          Alcotest.test_case "replies" `Quick test_wire_replies;
        ] );
      ( "memo",
        [
          Alcotest.test_case "basic" `Quick test_memo_basic;
          Alcotest.test_case "holds exactly its last N keys" `Quick
            test_memo_last_n;
          Alcotest.test_case "concurrent" `Quick test_memo_concurrent;
          Alcotest.test_case "invariants-8-domains" `Quick
            test_memo_invariants_concurrent;
        ] );
      ( "server",
        [
          Alcotest.test_case "verbs" `Quick test_server_verbs;
          Alcotest.test_case "proto-resync" `Quick test_server_proto_resync;
          Alcotest.test_case "pipelined-proto-resync" `Quick
            test_server_pipelined_proto_resync;
          Alcotest.test_case "trace-spans" `Quick test_server_trace_spans;
          Alcotest.test_case "two routes in order" `Quick
            test_server_two_routes_in_order;
          Alcotest.test_case "inline answer in STATS" `Quick
            test_server_inline_stats;
          Alcotest.test_case "drain waits for an inline request" `Quick
            test_server_drain_waits_for_inline;
          Alcotest.test_case "expired deadline on both routes" `Quick
            test_server_deadline_zero;
          Alcotest.test_case "closed tier sends all to the pool" `Quick
            test_server_tier_closed;
          Alcotest.test_case "shedding" `Quick test_server_shedding;
          Alcotest.test_case "overload-shed" `Quick test_server_overload_shed;
          Alcotest.test_case "memo-hit" `Quick test_server_memo_hit;
          Alcotest.test_case "worker-kill" `Quick test_server_worker_kill;
          Alcotest.test_case "worker-wedge" `Quick test_server_worker_wedge;
          Alcotest.test_case "reply not held behind a wedge" `Quick
            test_server_reply_not_held;
          Alcotest.test_case "deadline" `Quick test_server_deadline;
          Alcotest.test_case "flight admit ids" `Quick
            test_server_flight_admit_ids;
          Alcotest.test_case "drain-loses-nothing" `Quick
            test_server_drain_loses_nothing;
          Alcotest.test_case "chaos" `Slow test_server_chaos;
        ] );
      ( "bdprintd",
        [
          Alcotest.test_case "hex routing matches bdprint" `Quick
            test_daemon_hex_routing;
          Alcotest.test_case "--deadline-ms 0 answers ERR budget" `Quick
            test_daemon_deadline_zero;
          Alcotest.test_case "BDPRINT_NO_FASTPATH=1 sends all to the pool"
            `Quick test_daemon_no_fastpath;
        ] );
    ]
