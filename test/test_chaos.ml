(* Differential chaos test for the supervised conversion service.

   Every fault injection point runs at 1% per-call transient probability,
   and service.worker-kill kills a worker at 1% of its dequeues, while a
   mixed corpus streams through the parallel service.  The contract
   under chaos:

   - every successful output is byte-identical to the fault-free
     sequential run (retries mask transients, and a request whose worker
     died runs again, without corrupting results);
   - every failure keeps the class the fault-free run assigned it
     (syntax stays syntax; no injected fault is misreported);
   - no surviving Internal errors with a generous retry budget;
   - no exception escapes: every line gets exactly one reply, and every
     crashed worker is replaced;
   - after disarming, the service recovers immediately.

   Line count defaults to 10_000; CHAOS_LINES overrides it (the
   @chaos-smoke alias runs a reduced pass). *)

module S = Service.Supervisor
module Error = Robust.Error
module Faults = Robust.Faults
module Gen = Robust.Gen

let convert input =
  match
    Reader.read ~mode:Fp.Rounding.To_nearest_even Fp.Format_spec.binary64 input
  with
  | Error _ as e -> e
  | Ok v ->
    Dragon.Printer.print_value ~base:10 ~mode:Fp.Rounding.To_nearest_even
      ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
      Fp.Format_spec.binary64 v

let n_lines =
  match Sys.getenv_opt "CHAOS_LINES" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> failwith "CHAOS_LINES must be a positive integer")
  | None -> 10_000

(* Deterministic corpus: the nasty seed list plus a seeded mix of
   plain/extreme/long-digit/garbage inputs. *)
let corpus =
  let st = Random.State.make [| 0xC4A05 |] in
  let generated =
    List.init (max 0 (n_lines - List.length Gen.nasty)) (fun _ -> Gen.any st)
  in
  let all = Gen.nasty @ generated in
  (* exactly n_lines, even if nasty alone exceeds the requested count *)
  List.filteri (fun i _ -> i < n_lines) all

(* With ~tens of guarded calls per conversion, a 1% per-call fault rate
   fails a given attempt with probability up to roughly 0.45; 25 retries
   push the per-line residual below 1e-9, so the byte-identical
   assertion over 10k lines is deterministic in practice. *)
let chaos_retry =
  {
    S.max_retries = 25;
    backoff_ms = 0.05;
    backoff_multiplier = 2.0;
    backoff_cap_ms = 0.5;
  }

let run_chaos () =
  Faults.disarm_all ();

  (* 1. fault-free sequential baseline *)
  let baseline = List.map convert corpus in

  (* 2. arm everything at 1% and stream through the parallel service *)
  Faults.reset_trip_counts ();
  List.iter (fun p -> Faults.arm ~probability:0.01 p) Faults.pipeline_points;
  Faults.arm ~probability:0.01 "service.worker-kill";
  (* any failure below reproduces with this exact seed and schedule *)
  Printf.printf
    "chaos: reproduce with BDPRINT_FAULTS_SEED=%d BDPRINT_FAULTS=%S\n%!"
    Faults.seed (Faults.spec_string ());

  (* emit may run on several worker domains at once *)
  let m = Mutex.create () and replies = ref [] in
  let svc =
    S.start ~jobs:4 ~queue_capacity:128 ~retry:chaos_retry
      ~emit:(fun r -> Mutex.protect m (fun () -> replies := r :: !replies))
      convert
  in
  List.iteri (fun i input -> S.submit svc ~lineno:(i + 1) input) corpus;

  (* 3. disarm and submit a recovery tail on the same still-running
     service: it must come back clean *)
  Faults.disarm_all ();
  let recovery = List.init 20 (fun i -> Printf.sprintf "%d.5" i) in
  List.iteri
    (fun i input -> S.submit svc ~lineno:(n_lines + i + 1) input)
    recovery;
  let stats = S.shutdown svc in
  (* replies arrive in no particular order: line them up with the
     baseline *)
  let replies =
    List.sort
      (fun (a : S.reply) b -> compare a.S.lineno b.S.lineno)
      (Mutex.protect m (fun () -> !replies))
  in

  let trips = Faults.total_trips () in
  Printf.printf
    "chaos: %d lines + %d recovery, %d fault trips, %d retries, %d crashes, \
     %d respawns\n\
     %!"
    n_lines (List.length recovery) trips stats.S.retries stats.S.crashes
    stats.S.respawns;

  (* every line answered exactly once *)
  Alcotest.(check (list int)) "one reply per line"
    (List.init (n_lines + List.length recovery) (fun i -> i + 1))
    (List.map (fun (r : S.reply) -> r.S.lineno) replies);

  (* the chaos was real and the retries did work *)
  Alcotest.(check bool) "faults actually tripped" true (trips > 0);
  Alcotest.(check bool) "retries actually happened" true (stats.S.retries > 0);
  (* about one crash per 100 dequeues: a full run always has some, and
     a smoke pass of a few hundred lines may have none *)
  if n_lines >= 5_000 then
    Alcotest.(check bool) "workers actually crashed" true (stats.S.crashes > 0);
  Alcotest.(check int) "every crashed worker replaced" stats.S.crashes
    stats.S.respawns;

  (* differential check against the fault-free baseline *)
  let chaos_replies = List.filteri (fun i _ -> i < n_lines) replies in
  List.iteri
    (fun i (expected, (r : S.reply)) ->
      match (expected, r.S.outcome) with
      | Ok want, S.Done got ->
        if not (String.equal want got) then
          Alcotest.failf "line %d (%S): chaos output %S <> baseline %S" (i + 1)
            r.S.input got want
      | Error want, S.Failed got ->
        let wc = Error.category want and gc = Error.category got in
        if not (String.equal wc gc) then
          Alcotest.failf "line %d (%S): chaos failure class %s <> baseline %s"
            (i + 1) r.S.input gc wc
      | Ok want, S.Failed got ->
        Alcotest.failf "line %d (%S): chaos failed (%s) but baseline says %S"
          (i + 1) r.S.input (Error.to_string got) want
      | Error want, S.Done got ->
        Alcotest.failf
          "line %d (%S): chaos produced %S but baseline fails (%s)" (i + 1)
          r.S.input got (Error.to_string want))
    (List.combine baseline chaos_replies);

  (* transients and crashes never surfaced *)
  Alcotest.(check int) "no surviving internal errors" 0
    stats.S.internal_failures;

  (* the recovery tail after disarm is entirely clean *)
  let tail = List.filteri (fun i _ -> i >= n_lines) replies in
  List.iter
    (fun (r : S.reply) ->
      match r.S.outcome with
      | S.Done _ -> ()
      | _ -> Alcotest.failf "recovery line %d not clean" r.S.lineno)
    tail

let () =
  Alcotest.run "chaos"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "1%% transient faults, %d lines" n_lines)
            `Quick run_chaos;
        ] );
    ]
