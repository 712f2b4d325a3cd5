(* Unit tests for the supervised parallel conversion service
   (lib/service) and the fault-spec machinery it leans on: one reply per
   request, delivered without waiting on other requests, backpressure,
   retry masking of transient internal failures, fail-fast classes,
   deadlines, graceful drain, and a crashed worker's request running
   again. *)

module S = Service.Supervisor
module Error = Robust.Error
module Budget = Robust.Budget
module Faults = Robust.Faults

let convert_real input =
  match
    Reader.read ~mode:Fp.Rounding.To_nearest_even Fp.Format_spec.binary64 input
  with
  | Error _ as e -> e
  | Ok v ->
    Dragon.Printer.print_value ~base:10 ~mode:Fp.Rounding.To_nearest_even
      ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
      Fp.Format_spec.binary64 v

(* [emit] for a test: keeps every reply in emission order.  Emit may
   run on several worker domains at once, so the list has its own lock;
   [replies] reads it once the service is shut down. *)
let recorder () =
  let m = Mutex.create () and replies = ref [] in
  let emit r = Mutex.protect m (fun () -> replies := r :: !replies) in
  (emit, fun () -> Mutex.protect m (fun () -> List.rev !replies))

(* The replies sorted by line number. *)
let by_lineno replies =
  List.sort (fun (a : S.reply) b -> compare a.S.lineno b.S.lineno) replies

(* Each of lines 1..n got exactly one reply. *)
let check_each_once n replies =
  Alcotest.(check (list int)) "each reply exactly once"
    (List.init n (fun i -> i + 1))
    (List.map (fun (r : S.reply) -> r.S.lineno) (by_lineno replies))

(* Run a batch through a fresh service; the replies come back in
   emission order, read after shutdown, which joined every worker. *)
let collect ?(jobs = 2) ?(capacity = 8) ?retry ?deadline_ms convert inputs =
  let emit, replies = recorder () in
  let svc = S.start ~jobs ~queue_capacity:capacity ?retry ~emit convert in
  List.iteri
    (fun i input -> S.submit svc ?deadline_ms ~lineno:(i + 1) input)
    inputs;
  let stats = S.shutdown svc in
  (replies (), stats)

let fast_retry =
  { S.default_retry with S.backoff_ms = 0.02; backoff_cap_ms = 0.2 }

(* ------------------------------------------------------------------ *)
(* Faults: spec parsing, warning list, counters, probabilistic arming *)

let schedule_t : Faults.schedule Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Faults.Probability p -> Format.fprintf ppf "Probability %g" p
      | Faults.At_call k -> Format.fprintf ppf "At_call %d" k)
    (fun a b ->
      match (a, b) with
      | Faults.Probability x, Faults.Probability y -> Float.abs (x -. y) < 1e-9
      | Faults.At_call x, Faults.At_call y -> x = y
      | _ -> false)

let test_parse_spec () =
  let check name spec armed bad =
    let a, b = Faults.parse_spec spec in
    Alcotest.(check (list (pair string schedule_t))) (name ^ " armed") armed a;
    Alcotest.(check (list string)) (name ^ " rejected") bad b
  in
  let p x = Faults.Probability x in
  check "bare point" "nat.divmod" [ ("nat.divmod", p 1.0) ] [];
  check "probability" "nat.divmod:0.01" [ ("nat.divmod", p 0.01) ] [];
  check "mixed" "nat.divmod:0.5,scaling.scale"
    [ ("nat.divmod", p 0.5); ("scaling.scale", p 1.0) ]
    [];
  check "unknown point" "bogus" [] [ "bogus" ];
  check "unknown among known" "nat.pow,bogus,scaling.power"
    [ ("nat.pow", p 1.0); ("scaling.power", p 1.0) ]
    [ "bogus" ];
  check "malformed probability" "nat.pow:banana" [] [ "nat.pow:banana" ];
  check "probability out of range" "nat.pow:1.5" [] [ "nat.pow:1.5" ];
  check "empty entries skipped" ", ,nat.divmod," [ ("nat.divmod", p 1.0) ] [];
  check "unknown with probability" "no.such:0.5" [] [ "no.such:0.5" ];
  (* replayable schedules: point@req=k *)
  check "at-call schedule" "net.partial-write@req=500"
    [ ("net.partial-write", Faults.At_call 500) ]
    [];
  check "at-call mixed" "nat.divmod:0.5,service.worker-kill@req=3"
    [ ("nat.divmod", p 0.5); ("service.worker-kill", Faults.At_call 3) ]
    [];
  check "at-call zero rejected" "nat.divmod@req=0" [] [ "nat.divmod@req=0" ];
  check "at-call malformed" "nat.divmod@req=x" [] [ "nat.divmod@req=x" ];
  check "at-call bad keyword" "nat.divmod@call=3" [] [ "nat.divmod@call=3" ];
  check "at-call unknown point" "no.such@req=2" [] [ "no.such@req=2" ]

let test_at_call_schedule () =
  Faults.disarm_all ();
  Faults.reset_trip_counts ();
  Faults.reset_call_counts ();
  Faults.arm_at ~call:3 "net.malformed-frame";
  Alcotest.(check (option schedule_t))
    "schedule readable"
    (Some (Faults.At_call 3))
    (Faults.schedule_of "net.malformed-frame");
  Alcotest.(check (option (float 1e-9)))
    "no probability for scheduled point" None
    (Faults.probability "net.malformed-frame");
  Alcotest.(check string)
    "spec round-trips" "net.malformed-frame@req=3" (Faults.spec_string ());
  let fired = List.init 6 (fun _ -> Faults.fires "net.malformed-frame") in
  Alcotest.(check (list bool))
    "fires exactly on the 3rd consult"
    [ false; false; true; false; false; false ]
    fired;
  Alcotest.(check int) "consults counted" 6
    (Faults.call_count "net.malformed-frame");
  Alcotest.(check int) "one trip" 1 (Faults.trip_count "net.malformed-frame");
  (* resetting the consult counters replays the schedule exactly *)
  Faults.reset_call_counts ();
  let replay = List.init 3 (fun _ -> Faults.fires "net.malformed-frame") in
  Alcotest.(check (list bool))
    "replay after reset" [ false; false; true ] replay;
  Faults.disarm_all ();
  Faults.reset_trip_counts ();
  Faults.reset_call_counts ()

let test_trip_counters () =
  Faults.disarm_all ();
  Faults.reset_trip_counts ();
  Alcotest.(check int) "reset" 0 (Faults.total_trips ());
  let r =
    Error.catch (fun () ->
        Faults.with_fault "nat.divmod" (fun () -> Faults.trip "nat.divmod"))
  in
  (match r with
  | Error (Error.Internal { where = "nat.divmod"; _ }) -> ()
  | _ -> Alcotest.fail "expected injected internal error");
  Alcotest.(check int) "one trip counted" 1 (Faults.trip_count "nat.divmod");
  Alcotest.(check int) "total" 1 (Faults.total_trips ());
  Faults.reset_trip_counts ();
  Alcotest.(check int) "reset again" 0 (Faults.trip_count "nat.divmod")

let test_probabilistic_arming () =
  Faults.disarm_all ();
  (* probability 0: armed but never fires *)
  Faults.with_fault ~probability:0.0 "nat.divmod" (fun () ->
      Alcotest.(check bool) "armed" true (Faults.armed "nat.divmod");
      Alcotest.(check (option (float 1e-9)))
        "probability readable" (Some 0.0)
        (Faults.probability "nat.divmod");
      for _ = 1 to 200 do
        match Error.catch (fun () -> Faults.trip "nat.divmod") with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "p=0 must never trip"
      done);
  (* probability 1: always fires; a real conversion fails *)
  Faults.with_fault ~probability:1.0 "nat.divmod" (fun () ->
      match convert_real "0.1" with
      | Error (Error.Internal _) -> ()
      | _ -> Alcotest.fail "p=1 must fail the conversion");
  Alcotest.(check bool) "disarmed after" false (Faults.armed "nat.divmod");
  match convert_real "0.1" with
  | Ok s -> Alcotest.(check string) "clean again" "0.1" s
  | Error e -> Alcotest.fail (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Service basics *)

let test_each_reply_once () =
  let inputs = List.init 300 (fun i -> string_of_int i) in
  let replies, stats =
    collect ~jobs:4 ~capacity:16 (fun s -> Ok ("v" ^ s)) inputs
  in
  Alcotest.(check int) "all replies" 300 (List.length replies);
  check_each_once 300 replies;
  List.iter
    (fun (r : S.reply) ->
      match r.S.outcome with
      | S.Done s ->
        Alcotest.(check string) "payload" ("v" ^ string_of_int (r.S.lineno - 1))
          s
      | _ -> Alcotest.fail "expected Done")
    replies;
  Alcotest.(check int) "submitted" 300 stats.S.submitted;
  Alcotest.(check int) "completed" 300 stats.S.completed;
  Alcotest.(check int) "succeeded" 300 stats.S.succeeded

let test_backpressure_bound () =
  let inputs = List.init 50 (fun i -> string_of_int i) in
  let convert s =
    Unix.sleepf 0.001;
    Ok s
  in
  let replies, stats = collect ~jobs:2 ~capacity:4 convert inputs in
  Alcotest.(check int) "all drained" 50 (List.length replies);
  Alcotest.(check bool)
    (Printf.sprintf "in-flight bounded by capacity (%d <= 4)"
       stats.S.max_in_flight)
    true
    (stats.S.max_in_flight <= 4)

(* Waiting jobs leave the queue in submission order: with one worker,
   convert sees the inputs in the order they were submitted, also while
   [submit] blocks at the capacity of 2. *)
let test_one_worker_takes_in_order () =
  let seen = ref [] in
  let convert s =
    seen := s :: !seen;
    Unix.sleepf 0.0005;
    Ok s
  in
  let inputs = List.init 30 (fun i -> string_of_int i) in
  let replies, stats = collect ~jobs:1 ~capacity:2 convert inputs in
  Alcotest.(check int) "all drained" 30 (List.length replies);
  Alcotest.(check (list string)) "FIFO order" inputs (List.rev !seen);
  Alcotest.(check bool) "in-flight bounded by capacity" true
    (stats.S.max_in_flight <= 2)

let test_real_pipeline_parallel () =
  let inputs =
    [ "0.1"; "1e23"; "2.5e-1"; "9007199254740993"; "5e-324"; "1e999999999" ]
  in
  let replies, _ = collect ~jobs:3 convert_real inputs in
  let outs =
    List.map
      (fun (r : S.reply) ->
        match r.S.outcome with S.Done s -> s | _ -> "<fail>")
      (by_lineno replies)
  in
  Alcotest.(check (list string)) "parallel pipeline output"
    [ "0.1"; "1e23"; "0.25"; "9007199254740992.0"; "5e-324"; "inf" ]
    outs

(* ------------------------------------------------------------------ *)
(* Retry policy *)

let test_retry_masks_transient () =
  (* every input fails with Internal on its first attempt and succeeds
     on the second: retries must mask all of them *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let m = Mutex.create () in
  let convert input =
    Mutex.lock m;
    let n = Option.value (Hashtbl.find_opt seen input) ~default:0 in
    Hashtbl.replace seen input (n + 1);
    Mutex.unlock m;
    if n = 0 then Error (Error.internal ~where:"test" "transient")
    else Ok input
  in
  let inputs = List.init 60 (fun i -> string_of_int i) in
  let replies, stats = collect ~jobs:3 ~retry:fast_retry convert inputs in
  List.iter
    (fun (r : S.reply) ->
      match r.S.outcome with
      | S.Done s -> Alcotest.(check string) "masked" r.S.input s
      | _ -> Alcotest.fail "transient failure was not retried")
    replies;
  Alcotest.(check int) "one retry per input" 60 stats.S.retries;
  Alcotest.(check int) "no surviving internal errors" 0
    stats.S.internal_failures

let test_fail_fast_classes () =
  (* Syntax/Range/Budget never retry, even with a generous policy *)
  let calls = Atomic.make 0 in
  let convert input =
    Atomic.incr calls;
    match input with
    | "s" -> Error (Error.syntax ~input "nope")
    | "r" -> Error (Error.range ~what:"test" "nope")
    | _ -> Error (Error.budget ~what:"test" ~limit:1 ~got:2)
  in
  let replies, stats =
    collect ~jobs:2 ~retry:{ fast_retry with S.max_retries = 5 } convert
      [ "s"; "r"; "b" ]
  in
  List.iter
    (fun (r : S.reply) ->
      Alcotest.(check int) "single attempt" 1 r.S.attempts)
    replies;
  Alcotest.(check int) "three calls total" 3 (Atomic.get calls);
  Alcotest.(check int) "no retries" 0 stats.S.retries;
  Alcotest.(check int) "syntax counted" 1 stats.S.syntax_failures;
  Alcotest.(check int) "range counted" 1 stats.S.range_failures;
  Alcotest.(check int) "budget counted" 1 stats.S.budget_failures

let test_retry_exhaustion_surfaces () =
  let convert _ = Error (Error.internal ~where:"test" "permanent") in
  let replies, stats =
    collect ~jobs:1 ~retry:{ fast_retry with S.max_retries = 2 } convert
      [ "x" ]
  in
  (match replies with
  | [ { S.outcome = S.Failed (Error.Internal _); attempts = 3; _ } ] -> ()
  | [ r ] ->
    Alcotest.failf "expected Failed Internal after 3 attempts, got %d attempts"
      r.S.attempts
  | _ -> Alcotest.fail "expected one reply");
  Alcotest.(check int) "two retries recorded" 2 stats.S.retries;
  Alcotest.(check int) "internal failure surfaced" 1 stats.S.internal_failures

(* ------------------------------------------------------------------ *)
(* Deadlines *)

let test_deadline_zero () =
  let t0 = Unix.gettimeofday () in
  let replies, stats = collect ~jobs:2 ~deadline_ms:0 convert_real [ "0.1" ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match replies with
  | [ { S.outcome = S.Failed (Error.Budget { what; _ }); attempts = 0; _ } ] ->
    Alcotest.(check string) "timeout error" Budget.deadline_what what
  | _ -> Alcotest.fail "expected a structured timeout with zero attempts");
  Alcotest.(check int) "counted as budget class" 1 stats.S.budget_failures;
  Alcotest.(check bool) "bounded time" true (elapsed < 5.0)

let test_deadline_cuts_running_conversion () =
  (* a conversion stuck in a digit-loop-style spin is cut off by the
     cooperative deadline check at the budget check sites *)
  let convert _ =
    match
      Error.catch (fun () ->
          while true do
            Budget.check_bignum_bits 0
          done)
    with
    | Ok () -> Error (Error.internal ~where:"test" "unreachable")
    | Error e -> Error e
  in
  let t0 = Unix.gettimeofday () in
  let replies, _ = collect ~jobs:1 ~deadline_ms:30 convert [ "spin" ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match replies with
  | [ { S.outcome = S.Failed (Error.Budget { what; _ }); _ } ] ->
    Alcotest.(check string) "timeout error" Budget.deadline_what what
  | _ -> Alcotest.fail "expected a deadline timeout");
  Alcotest.(check bool)
    (Printf.sprintf "cut off cooperatively (%.3fs)" elapsed)
    true (elapsed < 5.0)

(* ------------------------------------------------------------------ *)
(* Shutdown drain *)

let test_shutdown_drains_everything () =
  let convert s =
    Unix.sleepf 0.002;
    Ok s
  in
  let inputs = List.init 40 (fun i -> string_of_int i) in
  (* shutdown is called immediately after the last submit, with most
     requests still queued: none may be dropped *)
  let replies, stats = collect ~jobs:3 ~capacity:64 convert inputs in
  Alcotest.(check int) "every request emitted" 40 (List.length replies);
  Alcotest.(check int) "completed = submitted" stats.S.submitted
    stats.S.completed;
  check_each_once 40 replies

(* [emit] must not raise; when it does anyway, only that call is lost.
   The exception never reaches the delivering worker's crash handler (no
   crash, no second reply for the job), and every other reply is still
   emitted once. *)
let test_raising_emit_is_contained () =
  let n = 20 in
  let record, replies = recorder () in
  let emit (r : S.reply) =
    record r;
    if r.S.lineno mod 7 = 3 then failwith "emit broke its contract"
  in
  let svc = S.start ~jobs:2 ~queue_capacity:n ~emit (fun s -> Ok s) in
  for i = 1 to n do
    S.submit svc ~lineno:i (string_of_int i)
  done;
  let stats = S.shutdown svc in
  check_each_once n (replies ());
  Alcotest.(check int) "no worker crash" 0 stats.S.crashes;
  Alcotest.(check int) "no respawn" 0 stats.S.respawns;
  Alcotest.(check int) "completed" n stats.S.completed

(* Poll [count] until it reaches [k] (10 s at most). *)
let await what count k =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while count () < k && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) what k (count ())

(* The watchdog is a deliverer too: when it answers a wedged request it
   emits that timeout reply in the wedged worker's place.  Request k is
   submitted alone, so it is the one the fault point wedges; the rest
   are converted by the other worker while k is stuck, and a reply is
   not held behind the wedged request: each of them is emitted before
   k's timeout. *)
let test_watchdog_emits_wedge_in_place () =
  let n = 12 and k = 5 in
  Faults.disarm_all ();
  Faults.reset_call_counts ();
  Faults.arm_at ~call:k "service.worker-wedge";
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  let record, replies = recorder () and emitted = Atomic.make 0 in
  let svc =
    S.start ~jobs:2 ~queue_capacity:n
      ~watchdog:{ S.poll_ms = 5; grace_ms = 20; stuck_ms = 10_000 }
      ~emit:(fun r ->
        record r;
        Atomic.incr emitted)
      (fun s -> Ok s)
  in
  (* the [k]th consult of the fault point is the [k]th dequeue *)
  let consults () = Faults.call_count "service.worker-wedge" in
  let submit i =
    let deadline_ms = if i = k then Some 200 else None in
    S.submit svc ?deadline_ms ~lineno:i (string_of_int i)
  in
  for i = 1 to k - 1 do
    submit i
  done;
  await "consults before k" consults (k - 1);
  submit k;
  await "consults through k" consults k;
  for i = k + 1 to n do
    submit i
  done;
  (* shutdown stops the watchdog first: let it answer the wedge *)
  await "emitted" (fun () -> Atomic.get emitted) n;
  let stats = S.shutdown svc in
  let replies = replies () in
  check_each_once n replies;
  let rec emitted_before_k = function
    | [] -> []
    | (r : S.reply) :: _ when r.S.lineno = k -> []
    | r :: rest -> r.S.lineno :: emitted_before_k rest
  in
  Alcotest.(check (list int)) "a reply is not held behind a wedged request"
    (List.init (n - k) (fun i -> k + 1 + i))
    (List.filter (fun l -> l > k) (emitted_before_k replies) |> List.sort compare);
  List.iter
    (fun (r : S.reply) ->
      match r.S.outcome with
      | S.Failed (Error.Budget { what; _ }) when r.S.lineno = k ->
        Alcotest.(check string) "watchdog timeout" Budget.deadline_what what;
        Alcotest.(check int) "no attempt" 0 r.S.attempts
      | S.Done s when r.S.lineno <> k ->
        Alcotest.(check string) "payload" (string_of_int r.S.lineno) s
      | _ -> Alcotest.failf "unexpected outcome for line %d" r.S.lineno)
    replies;
  Alcotest.(check int) "one wedge" 1 stats.S.wedges;
  Alcotest.(check int) "one respawn" 1 stats.S.respawns;
  Alcotest.(check int) "completed" n stats.S.completed

(* Past the runtime's domain limit, start refuses before it spawns. *)
let test_jobs_cap () =
  let refused jobs =
    match S.start ~jobs ~emit:(fun _ -> ()) (fun s -> Ok s) with
    | exception Invalid_argument _ -> true
    | svc ->
      ignore (S.shutdown svc);
      false
  in
  Alcotest.(check bool) "jobs 0" true (refused 0);
  Alcotest.(check bool) "jobs past max_jobs" true (refused (S.max_jobs + 1));
  Alcotest.(check bool) "jobs 1000" true (refused 1000)

let test_submit_after_shutdown () =
  let svc = S.start ~jobs:1 ~emit:(fun _ -> ()) (fun s -> Ok s) in
  ignore (S.shutdown svc);
  Alcotest.(check bool) "submit after shutdown rejected" true
    (match S.submit svc ~lineno:1 "x" with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* shutdown is idempotent *)
  let stats = S.shutdown svc in
  Alcotest.(check int) "idempotent shutdown" 0 stats.S.submitted

(* ------------------------------------------------------------------ *)
(* Crashes: a request whose worker dies runs again *)

(* The kill fires on the third dequeue, whichever worker makes it; the
   dying worker puts its request back, and the replacement (or, with
   two workers, the other one) runs it again.  Every reply is the
   pipeline's, and the re-run counts as one more attempt. *)
let test_crashed_request_runs_again () =
  Fun.protect ~finally:(fun () ->
      Faults.disarm_all ();
      Faults.reset_call_counts ())
  @@ fun () ->
  let inputs =
    [ "0.1"; "1e23"; "2.5e-1"; "9007199254740993"; "5e-324"; "123.456" ]
  in
  List.iter
    (fun jobs ->
      Faults.disarm_all ();
      Faults.reset_call_counts ();
      Faults.arm_at ~call:3 "service.worker-kill";
      let replies, stats = collect ~jobs convert_real inputs in
      check_each_once (List.length inputs) replies;
      List.iter
        (fun (r : S.reply) ->
          match (r.S.outcome, convert_real r.S.input) with
          | S.Done got, Ok want ->
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d: %s" jobs r.S.input)
              want got
          | _ -> Alcotest.failf "jobs=%d: line %d is not Done" jobs r.S.lineno)
        replies;
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: one reply took two runs" jobs)
        [ 2 ]
        (List.filter_map
           (fun (r : S.reply) ->
             if r.S.attempts > 1 then Some r.S.attempts else None)
           replies);
      Alcotest.(check int) (Printf.sprintf "jobs=%d: one crash" jobs) 1
        stats.S.crashes;
      Alcotest.(check int) (Printf.sprintf "jobs=%d: one respawn" jobs) 1
        stats.S.respawns;
      Alcotest.(check int) (Printf.sprintf "jobs=%d: one retry" jobs) 1
        stats.S.retries)
    [ 1; 2 ]

(* A request that kills every worker that runs it is not run forever:
   its [max_retries + 1]th death answers it with a structured internal
   error, and the service is whole again once the fault clears. *)
let test_request_killing_every_worker_fails () =
  Fun.protect ~finally:Faults.disarm_all @@ fun () ->
  Faults.disarm_all ();
  Faults.arm ~probability:1.0 "service.worker-kill";
  let record, replies = recorder () and emitted = Atomic.make 0 in
  let svc =
    S.start ~jobs:1
      ~retry:{ fast_retry with S.max_retries = 2 }
      ~emit:(fun r ->
        record r;
        Atomic.incr emitted)
      convert_real
  in
  S.submit svc ~lineno:1 "0.1";
  await "the poisoned request is answered" (fun () -> Atomic.get emitted) 1;
  Faults.disarm_all ();
  S.submit svc ~lineno:2 "0.1";
  let stats = S.shutdown svc in
  (match by_lineno (replies ()) with
  | [
   { S.outcome = S.Failed (Error.Internal _); attempts = 3; _ };
   { S.outcome = S.Done "0.1"; _ };
  ] ->
    ()
  | _ -> Alcotest.fail "expected Failed Internal after 3 runs, then Done 0.1");
  Alcotest.(check int) "three crashes" 3 stats.S.crashes;
  Alcotest.(check int) "three respawns" 3 stats.S.respawns;
  Alcotest.(check int) "two re-runs" 2 stats.S.retries;
  Alcotest.(check int) "one internal failure" 1 stats.S.internal_failures

(* ------------------------------------------------------------------ *)
(* Flight recorder: a worker crash dumps the ring naming the poisoned
   request *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_flight_dump_on_crash () =
  let dump_file = Filename.temp_file "bdflight" ".jsonl" in
  Sys.remove dump_file;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Flight.set_enabled false;
      Telemetry.Flight.set_dump_path None;
      Telemetry.Flight.clear ();
      Faults.disarm_all ();
      Faults.reset_trip_counts ();
      Faults.reset_call_counts ();
      if Sys.file_exists dump_file then Sys.remove dump_file)
    (fun () ->
      Telemetry.Flight.clear ();
      Telemetry.Flight.set_enabled true;
      Telemetry.Flight.set_dump_path (Some dump_file);
      let dumps_before = Telemetry.Flight.dump_count () in
      (* one worker, kill on its 3rd dequeue: the poisoned request is
         deterministically the third input *)
      Faults.disarm_all ();
      Faults.reset_call_counts ();
      Faults.arm_at ~call:3 "service.worker-kill";
      let inputs = [ "0.1"; "0.2"; "0.3"; "0.4" ] in
      let replies, stats = collect ~jobs:1 convert_real inputs in
      Alcotest.(check int) "all inputs answered" 4 (List.length replies);
      (match
         List.find_opt (fun (r : S.reply) -> r.S.input = "0.3") replies
       with
      | Some { S.outcome = S.Done out; _ } ->
        Alcotest.(check string) "the poisoned request runs again" "0.3" out
      | _ -> Alcotest.fail "0.3 did not come back Done");
      Alcotest.(check int) "one crash" 1 stats.S.crashes;
      Alcotest.(check int) "one respawn" 1 stats.S.respawns;
      Alcotest.(check int) "one dump written" (dumps_before + 1)
        (Telemetry.Flight.dump_count ());
      let dump = slurp dump_file in
      Alcotest.(check bool) "dump names its reason" true
        (contains dump {|"reason":"worker-crash"|});
      Alcotest.(check bool) "crash event names the poisoned request" true
        (contains dump "exn=Service__Supervisor.Worker_killed input=0.3");
      Alcotest.(check bool) "service-start for the poisoned request" true
        (contains dump {|"kind":"service-start","detail":"worker=0 input=0.3"|});
      Alcotest.(check bool) "fault trip recorded" true
        (contains dump {|"kind":"fault-trip","detail":"service.worker-kill"|}))

(* ------------------------------------------------------------------ *)

let () =
  Faults.disarm_all ();
  Alcotest.run "service"
    [
      ( "faults",
        [
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
          Alcotest.test_case "at-call schedule" `Quick test_at_call_schedule;
          Alcotest.test_case "trip counters" `Quick test_trip_counters;
          Alcotest.test_case "probabilistic arming" `Quick
            test_probabilistic_arming;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "each reply exactly once" `Quick
            test_each_reply_once;
          Alcotest.test_case "backpressure bound" `Quick
            test_backpressure_bound;
          Alcotest.test_case "one worker takes jobs in order" `Quick
            test_one_worker_takes_in_order;
          Alcotest.test_case "real pipeline parallel" `Quick
            test_real_pipeline_parallel;
          Alcotest.test_case "retry masks transient" `Quick
            test_retry_masks_transient;
          Alcotest.test_case "fail fast classes" `Quick test_fail_fast_classes;
          Alcotest.test_case "retry exhaustion surfaces" `Quick
            test_retry_exhaustion_surfaces;
          Alcotest.test_case "deadline zero" `Quick test_deadline_zero;
          Alcotest.test_case "deadline cuts running conversion" `Quick
            test_deadline_cuts_running_conversion;
          Alcotest.test_case "shutdown drains everything" `Quick
            test_shutdown_drains_everything;
          Alcotest.test_case "jobs past the domain limit" `Quick test_jobs_cap;
          Alcotest.test_case "submit after shutdown" `Quick
            test_submit_after_shutdown;
          Alcotest.test_case "watchdog emits a wedge in place" `Quick
            test_watchdog_emits_wedge_in_place;
          Alcotest.test_case "raising emit is contained" `Quick
            test_raising_emit_is_contained;
        ] );
      ( "crash",
        [
          Alcotest.test_case "a crashed request runs again" `Quick
            test_crashed_request_runs_again;
          Alcotest.test_case "a request that kills every worker fails internal"
            `Quick test_request_killing_every_worker_fails;
        ] );
      ( "flight",
        [
          Alcotest.test_case "crash dumps the poisoned request" `Quick
            test_flight_dump_on_crash;
        ] );
    ]
