(* Telemetry layer: registry semantics under concurrency, histogram
   bucket boundaries, Prometheus golden rendering, fault-trip export,
   and an end-to-end check that [bdprint --stdin --jobs N --metrics]
   reports exact counters without perturbing stdout. *)

module Metrics = Telemetry.Metrics
module Snapshot = Telemetry.Snapshot
module Error = Robust.Error
module Faults = Robust.Faults

let slurp path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let test_concurrent_counters () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r ~help:"test" "test_concurrent_total" in
  let h =
    Metrics.histogram ~registry:r ~help:"test" ~bounds:[| 10; 20 |]
      "test_concurrent_hist"
  in
  let per_domain = 25_000 in
  let domains = 4 in
  let work () =
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h (i mod 30)
    done
  in
  let spawned = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join spawned;
  Alcotest.(check int)
    "4-domain increments sum exactly" (domains * per_domain)
    (Metrics.value c);
  let _, _, count = Metrics.histogram_state h in
  Alcotest.(check int)
    "4-domain observations all counted" (domains * per_domain) count

let test_idempotent_registration () =
  let r = Metrics.create_registry () in
  let c1 =
    Metrics.counter ~registry:r
      ~labels:[ ("k", "v") ]
      ~help:"test" "test_idem_total"
  in
  let c2 =
    Metrics.counter ~registry:r
      ~labels:[ ("k", "v") ]
      ~help:"test" "test_idem_total"
  in
  Metrics.incr c1;
  Alcotest.(check int) "same series, same cell" 1 (Metrics.value c2);
  (* a different label set is a different series *)
  let c3 =
    Metrics.counter ~registry:r
      ~labels:[ ("k", "other") ]
      ~help:"test" "test_idem_total"
  in
  Alcotest.(check int) "distinct labels, distinct cell" 0 (Metrics.value c3);
  (* re-registering a histogram with different bounds is a bug, not a
     silent new series *)
  let _ =
    Metrics.histogram ~registry:r ~help:"test" ~bounds:[| 1; 2 |]
      "test_idem_hist"
  in
  Alcotest.check_raises "conflicting bounds rejected"
    (Invalid_argument
       "Metrics.histogram: test_idem_hist already registered with other bounds")
    (fun () ->
      ignore
        (Metrics.histogram ~registry:r ~help:"test" ~bounds:[| 1; 3 |]
           "test_idem_hist"));
  Alcotest.check_raises "type conflict rejected"
    (Invalid_argument
       "Metrics.counter: test_idem_hist already registered as another type")
    (fun () ->
      ignore (Metrics.counter ~registry:r ~help:"test" "test_idem_hist"))

(* ------------------------------------------------------------------ *)
(* Histogram bucket boundaries *)

let test_histogram_buckets () =
  let r = Metrics.create_registry () in
  let h =
    Metrics.histogram ~registry:r ~help:"test" ~bounds:[| 1; 2; 5 |]
      "test_bucket_hist"
  in
  (* bounds are inclusive upper bounds: 0,1 -> le=1; 2 -> le=2;
     3,4,5 -> le=5; 6,100 -> overflow *)
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 5; 6; 100 ];
  let counts, sum, count = Metrics.histogram_state h in
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 3; 2 |] counts;
  Alcotest.(check int) "sum" 121 sum;
  Alcotest.(check int) "count" 8 count;
  let snap = Snapshot.take ~registry:r () in
  match Snapshot.histogram_value snap "test_bucket_hist" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hv ->
    Alcotest.(check (array int)) "snapshot bounds" [| 1; 2; 5 |] hv.bounds;
    Alcotest.(check (array int))
      "snapshot counts" [| 2; 1; 3; 2 |] hv.Snapshot.counts;
    Alcotest.(check int) "snapshot sum" 121 hv.Snapshot.sum;
    Alcotest.(check int) "snapshot count" 8 hv.Snapshot.count

(* ------------------------------------------------------------------ *)
(* Log-linear bucket generator *)

let test_log_linear () =
  Alcotest.(check (array int))
    "one decade, 5 per decade"
    [| 100; 200; 400; 600; 800; 1000 |]
    (Metrics.log_linear ~lo:100 ~hi:1000 ());
  Alcotest.(check (array int))
    "two decades, 2 per decade"
    [| 10; 50; 100; 500; 1000 |]
    (Metrics.log_linear ~per_decade:2 ~lo:10 ~hi:1000 ());
  Alcotest.(check (array int))
    "hi off the grid is still the last bound" [| 1; 10; 25 |]
    (Metrics.log_linear ~per_decade:1 ~lo:1 ~hi:25 ());
  Alcotest.check_raises "lo < 1 rejected"
    (Invalid_argument "Metrics.log_linear: need lo >= 1") (fun () ->
      ignore (Metrics.log_linear ~lo:0 ~hi:10 ()));
  Alcotest.check_raises "hi <= lo rejected"
    (Invalid_argument "Metrics.log_linear: need hi > lo") (fun () ->
      ignore (Metrics.log_linear ~lo:10 ~hi:10 ()));
  (* the generated array passes histogram bound validation, and the same
     call yields the same array — registration stays idempotent *)
  let r = Metrics.create_registry () in
  let mk () =
    Metrics.histogram ~registry:r ~help:"test"
      ~bounds:(Metrics.log_linear ~lo:100 ~hi:10_000_000 ())
      "test_ll_hist"
  in
  let h1 = mk () and h2 = mk () in
  Metrics.observe h1 500;
  let _, _, count = Metrics.histogram_state h2 in
  Alcotest.(check int) "same series" 1 count

(* ------------------------------------------------------------------ *)
(* Exemplars *)

let test_exemplars () =
  let r = Metrics.create_registry () in
  let h =
    Metrics.histogram ~registry:r ~help:"Latency." ~bounds:[| 10; 100 |]
      "demo_latency"
  in
  Metrics.observe h 3;
  Alcotest.(check bool)
    "no exemplar before a traced observation" true
    (Metrics.exemplar_of h = None);
  Metrics.observe_ex h ~trace_id:7 42;
  Metrics.observe_ex h ~trace_id:9 17;
  (* lower-valued traced sample does not displace the max *)
  Alcotest.(check bool)
    "exemplar keeps the max traced sample" true
    (Metrics.exemplar_of h = Some (42, 7));
  Metrics.observe_ex h ~trace_id:0 10_000;
  Alcotest.(check bool)
    "trace_id 0 never becomes an exemplar" true
    (Metrics.exemplar_of h = Some (42, 7));
  let prom = Snapshot.to_prometheus (Snapshot.take ~registry:r ()) in
  let expected =
    "# HELP demo_latency Latency.\n\
     # TYPE demo_latency histogram\n\
     demo_latency_bucket{le=\"10\"} 1\n\
     demo_latency_bucket{le=\"100\"} 3 # {trace_id=\"7\"} 42\n\
     demo_latency_bucket{le=\"+Inf\"} 4\n\
     demo_latency_sum 10062\n\
     demo_latency_count 4\n"
  in
  Alcotest.(check string) "exemplar on the containing bucket" expected prom;
  let json = Snapshot.to_json (Snapshot.take ~registry:r ()) in
  let contains needle hay =
    let n = String.length needle and l = String.length hay in
    let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "json carries the exemplar" true
    (contains {|"exemplar": {"value": 42, "trace_id": 7}|} json);
  (* an overflow-bucket exemplar lands on +Inf *)
  Metrics.observe_ex h ~trace_id:11 5_000;
  let prom = Snapshot.to_prometheus (Snapshot.take ~registry:r ()) in
  Alcotest.(check bool)
    "overflow exemplar on +Inf" true
    (contains "demo_latency_bucket{le=\"+Inf\"} 5 # {trace_id=\"11\"} 5000\n"
       prom)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event golden output *)

let test_chrome_golden () =
  Telemetry.Tracing.clear ();
  Telemetry.Tracing.inject ~tid:3 ~stage:Telemetry.Tracing.Parse
    ~start_ns:1_000_000 ~dur_ns:2_500 ();
  Telemetry.Tracing.inject ~tid:3 ~stage:Telemetry.Tracing.Request
    ~start_ns:1_000_000 ~dur_ns:10_000 ~dom:2 ~note:{|a"b|} ();
  Telemetry.Tracing.inject ~tid:5 ~stage:Telemetry.Tracing.Queue_wait
    ~start_ns:990_123 ~dur_ns:7 ();
  let expected =
    "{\"traceEvents\":[\n\
     {\"name\":\"queue-wait\",\"cat\":\"bdprint\",\"ph\":\"X\",\"ts\":990.123,\"dur\":0.007,\"pid\":42,\"tid\":5,\"args\":{\"dom\":0}},\n\
     {\"name\":\"parse\",\"cat\":\"bdprint\",\"ph\":\"X\",\"ts\":1000.000,\"dur\":2.500,\"pid\":42,\"tid\":3,\"args\":{\"dom\":0}},\n\
     {\"name\":\"request\",\"cat\":\"bdprint\",\"ph\":\"X\",\"ts\":1000.000,\"dur\":10.000,\"pid\":42,\"tid\":3,\"args\":{\"dom\":2,\"note\":\"a\\\"b\"}}\n\
     ],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":0}}\n"
  in
  Alcotest.(check string)
    "chrome trace-event golden" expected
    (Telemetry.Tracing.to_chrome_json ~pid:42 ());
  Alcotest.(check int) "ring holds 3" 3 (Telemetry.Tracing.events_recorded ());
  Telemetry.Tracing.clear ();
  Alcotest.(check int) "clear empties" 0 (Telemetry.Tracing.events_recorded ())

let test_tracing_lifecycle () =
  Telemetry.Tracing.clear ();
  Telemetry.Tracing.set_enabled true;
  Telemetry.Tracing.set_sample_every 1;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Tracing.set_enabled false;
      Telemetry.Tracing.set_sample_every 64;
      Telemetry.Tracing.clear ())
    (fun () ->
      let tid = Telemetry.Tracing.begin_request () in
      Alcotest.(check bool) "sampled at 1-in-1" true (tid <> 0);
      Alcotest.(check int) "current follows begin_request" tid
        (Telemetry.Tracing.current ());
      let t0 = Telemetry.Tracing.start () in
      Telemetry.Tracing.finish Telemetry.Tracing.Parse t0;
      Telemetry.Tracing.end_request tid;
      Alcotest.(check int) "current cleared" 0 (Telemetry.Tracing.current ());
      (* parse span + request root span *)
      Alcotest.(check int) "two spans" 2
        (Telemetry.Tracing.events_recorded ());
      (* a disabled sampler yields 0 *)
      Telemetry.Tracing.set_enabled false;
      Alcotest.(check int) "disabled sample" 0 (Telemetry.Tracing.sample ()))

(* ------------------------------------------------------------------ *)
(* Span sites: one start/finish pair feeds histograms and the ring *)

module Tracing = Telemetry.Tracing

(* Runs [f] with the metrics and tracing switches set as given (request
   sampling 1-in-1), restoring both and emptying the ring afterwards. *)
let with_switches ~metrics ~tracing f =
  let was_metrics = Metrics.enabled () and was_tracing = Tracing.enabled () in
  Metrics.set_enabled metrics;
  Tracing.set_enabled tracing;
  Tracing.set_sample_every 1;
  Tracing.clear ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled was_metrics;
      Tracing.set_enabled was_tracing;
      Tracing.set_sample_every 64;
      Tracing.clear ())
    f

(* The process-wide series [bdprint_stage_duration_ns{stage=...}]. *)
let stage_hist stage =
  let is_series m =
    let meta = Metrics.meta_of m in
    meta.Metrics.name = "bdprint_stage_duration_ns"
    && meta.Metrics.labels = [ ("stage", Tracing.stage_name stage) ]
  in
  match List.find_opt is_series (Metrics.list_metrics ()) with
  | Some (Metrics.Histogram h) -> h
  | _ -> Alcotest.failf "no histogram for stage %s" (Tracing.stage_name stage)

let observations stage =
  let _, _, count = Metrics.histogram_state (stage_hist stage) in
  count

(* The ring's events as (trace id, stage name, args tail), where the
   tail is [,"note":"..."] or empty. *)
let ring_events () =
  String.split_on_char '\n' (Tracing.to_chrome_json ~pid:1 ())
  |> List.filter_map (fun line ->
         try
           Scanf.sscanf line
             ("{\"name\":\"%[^\"]\",\"cat\":\"bdprint\",\"ph\":\"X\","
             ^^ "\"ts\":%_f,\"dur\":%_f,\"pid\":1,\"tid\":%d,"
             ^^ "\"args\":{\"dom\":%_d%[^}]")
             (fun name tid tail -> Some (tid, name, tail))
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let test_span_histogram_sampling () =
  with_switches ~metrics:true ~tracing:false (fun () ->
      let before = observations Tracing.Boundaries in
      (* a fresh domain, so its first span is the countdown's first *)
      let first, rest, again =
        Domain.join
          (Domain.spawn (fun () ->
               let first = Tracing.start () in
               let rest = List.init 31 (fun _ -> Tracing.start ()) in
               let again = Tracing.start () in
               Tracing.finish Tracing.Boundaries first;
               List.iter (Tracing.finish Tracing.Boundaries) rest;
               (first, rest, again)))
      in
      Alcotest.(check bool) "first span of a domain samples" true (first <> 0);
      Alcotest.(check (list int))
        "the next 31 do not" (List.init 31 (fun _ -> 0)) rest;
      Alcotest.(check bool) "the 33rd samples again" true (again <> 0);
      Alcotest.(check int) "one observation" (before + 1)
        (observations Tracing.Boundaries);
      Alcotest.(check int) "nothing in the ring" 0 (Tracing.events_recorded ()))

let test_span_traced_request () =
  with_switches ~metrics:true ~tracing:true (fun () ->
      let tid = Tracing.begin_request () in
      Alcotest.(check bool) "request traced" true (tid <> 0);
      let before = observations Tracing.Render in
      let t0 = Tracing.start () in
      Alcotest.(check bool) "traced span always times" true (t0 <> 0);
      Unix.sleepf 0.002;
      Tracing.finish ~note:"probe" Tracing.Render t0;
      Tracing.end_request tid;
      let renders =
        List.filter (fun (_, name, _) -> name = "render") (ring_events ())
      in
      Alcotest.(check (list (triple int string string)))
        "one ring event with the id and note"
        [ (tid, "render", {|,"note":"probe"|}) ]
        renders;
      Alcotest.(check int) "histogram observed" (before + 1)
        (observations Tracing.Render);
      match Metrics.exemplar_of (stage_hist Tracing.Render) with
      | Some (_, ex) -> Alcotest.(check int) "exemplar carries the id" tid ex
      | None -> Alcotest.fail "no exemplar on the render series")

let test_span_start_for_zero () =
  with_switches ~metrics:true ~tracing:true (fun () ->
      Alcotest.(check int) "start_for 0" 0 (Tracing.start_for 0);
      Tracing.finish ~tid:0 Tracing.Queue_wait (Tracing.start_for 0);
      Alcotest.(check int) "ring untouched" 0 (Tracing.events_recorded ()))

let test_span_explicit_id () =
  with_switches ~metrics:false ~tracing:true (fun () ->
      let current = Tracing.begin_request () in
      let other = Tracing.fresh_tid () in
      let t0 = Tracing.start_for other in
      Tracing.finish ~tid:other Tracing.Wire_write t0;
      Tracing.end_request current;
      let wire_writes =
        List.filter_map
          (fun (tid, name, _) -> if name = "wire-write" then Some tid else None)
          (ring_events ())
      in
      Alcotest.(check bool) "ids differ" true (other <> current);
      Alcotest.(check (list int))
        "lands under its own id" [ other ] wire_writes)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_recorder () =
  Telemetry.Flight.clear ();
  Telemetry.Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Flight.set_enabled false;
      Telemetry.Flight.set_dump_path None;
      Telemetry.Flight.clear ())
    (fun () ->
      Telemetry.Flight.record ~req:12 ~kind:"admit" "0.1";
      Telemetry.Flight.record ~req:12 ~kind:"crash" {|worker=0 exn="boom"|};
      Alcotest.(check int) "two events" 2
        (Telemetry.Flight.events_recorded ());
      let jsonl = Telemetry.Flight.to_jsonl ~reason:"unit-test" () in
      let lines =
        String.split_on_char '\n' jsonl
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "header + 2 events" 3 (List.length lines);
      let contains needle hay =
        let n = String.length needle and l = String.length hay in
        let rec go i =
          i + n <= l && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "header names the reason" true
        (contains {|"flight_dump":true,"reason":"unit-test"|}
           (List.nth lines 0));
      Alcotest.(check bool) "event carries request id" true
        (contains {|"req":12,"kind":"admit","detail":"0.1"|}
           (List.nth lines 1));
      Alcotest.(check bool) "detail quotes escaped" true
        (contains {|\"boom\"|} (List.nth lines 2));
      (* dumps append to the configured path *)
      let path = Filename.temp_file "flight" ".jsonl" in
      Telemetry.Flight.set_dump_path (Some path);
      Telemetry.Flight.dump ~reason:"first";
      Telemetry.Flight.dump ~reason:"second";
      let dumped = slurp path in
      Sys.remove path;
      Alcotest.(check bool) "both dumps appended" true
        (contains {|"reason":"first"|} dumped
        && contains {|"reason":"second"|} dumped);
      Alcotest.(check int) "dump_count" 2 (Telemetry.Flight.dump_count ());
      (* disabled recorder drops events *)
      Telemetry.Flight.set_enabled false;
      Telemetry.Flight.record ~kind:"admit" "late";
      Alcotest.(check int) "disabled record is a no-op" 2
        (Telemetry.Flight.events_recorded ()))

(* ------------------------------------------------------------------ *)
(* Prometheus golden output *)

let test_prometheus_golden () =
  let r = Metrics.create_registry () in
  let ok =
    Metrics.counter ~registry:r
      ~labels:[ ("result", "ok") ]
      ~help:"Requests by result." "demo_requests_total"
  in
  let err =
    Metrics.counter ~registry:r
      ~labels:[ ("result", "error") ]
      ~help:"Requests by result." "demo_requests_total"
  in
  let g = Metrics.gauge ~registry:r ~help:"Queue depth." "demo_queue_depth" in
  let h =
    Metrics.histogram ~registry:r ~help:"Sizes." ~bounds:[| 1; 10 |]
      "demo_sizes"
  in
  Metrics.incr ok;
  Metrics.incr ok;
  Metrics.incr err;
  Metrics.set_gauge g 7;
  List.iter (Metrics.observe h) [ 0; 5; 200 ];
  let expected =
    "# HELP demo_requests_total Requests by result.\n\
     # TYPE demo_requests_total counter\n\
     demo_requests_total{result=\"ok\"} 2\n\
     demo_requests_total{result=\"error\"} 1\n\
     # HELP demo_queue_depth Queue depth.\n\
     # TYPE demo_queue_depth gauge\n\
     demo_queue_depth 7\n\
     # HELP demo_sizes Sizes.\n\
     # TYPE demo_sizes histogram\n\
     demo_sizes_bucket{le=\"1\"} 1\n\
     demo_sizes_bucket{le=\"10\"} 2\n\
     demo_sizes_bucket{le=\"+Inf\"} 3\n\
     demo_sizes_sum 205\n\
     demo_sizes_count 3\n"
  in
  Alcotest.(check string)
    "prometheus text" expected
    (Snapshot.to_prometheus (Snapshot.take ~registry:r ()))

(* ------------------------------------------------------------------ *)
(* Fault trip counters surface as metrics *)

let test_fault_trip_metrics () =
  Faults.disarm_all ();
  Faults.reset_trip_counts ();
  let before = List.assoc "nat.divmod" (Faults.trip_counts ()) in
  (match
     Error.catch (fun () ->
         Faults.with_fault "nat.divmod" (fun () -> Faults.trip "nat.divmod"))
   with
  | Error (Error.Internal _) -> ()
  | _ -> Alcotest.fail "armed trip must surface as Internal");
  Faults.disarm_all ();
  let after = List.assoc "nat.divmod" (Faults.trip_counts ()) in
  Alcotest.(check int) "trip_counts delta" 1 (after - before);
  let snap = Snapshot.take () in
  Alcotest.(check int) "exported as bdprint_fault_trips_total" after
    (Snapshot.counter_value
       ~labels:[ ("point", "nat.divmod") ]
       snap "bdprint_fault_trips_total");
  Faults.reset_trip_counts ()

(* ------------------------------------------------------------------ *)
(* End to end: --metrics on a parallel stream *)

let bdprint_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdprint.exe"

let run_stream ?metrics input_file =
  let out = Filename.temp_file "telemetry" ".out" in
  let flags =
    match metrics with
    | None -> ""
    | Some file -> Printf.sprintf "--metrics %s" (Filename.quote file)
  in
  let cmd =
    Printf.sprintf "%s --stdin --jobs 4 %s < %s > %s 2> /dev/null"
      (bdprint_exe ()) flags
      (Filename.quote input_file)
      (Filename.quote out)
  in
  let status = Sys.command cmd in
  let stdout = slurp out in
  Sys.remove out;
  (status, stdout)

let prom_counter_line prom name =
  String.split_on_char '\n' prom
  |> List.exists (fun l -> String.equal l name)

(* Sum every sample of a counter family in the Prometheus text:
   "name{...} v" or "name v" lines. *)
let prom_family_sum prom name =
  String.split_on_char '\n' prom
  |> List.fold_left
       (fun acc l ->
         let prefixed p = String.length l > String.length p
                          && String.sub l 0 (String.length p) = p in
         if prefixed (name ^ "{") || prefixed (name ^ " ") then
           match String.rindex_opt l ' ' with
           | Some i ->
             acc
             + int_of_string
                 (String.sub l (i + 1) (String.length l - i - 1))
           | None -> acc
         else acc)
       0

let test_metrics_end_to_end () =
  let lines = 10_000 in
  let input = Filename.temp_file "telemetry" ".in" in
  let oc = open_out input in
  let st = Random.State.make [| 20260807 |] in
  for _ = 1 to lines do
    let x = Random.State.float st 2.0 -. 1.0 in
    let e = Random.State.int st 60 - 30 in
    Printf.fprintf oc "%.17ge%d\n" x e
  done;
  close_out oc;
  let mfile = Filename.temp_file "telemetry" ".json" in
  let pfile = Filename.chop_suffix mfile ".json" ^ ".prom" in
  let status_m, out_m = run_stream ~metrics:mfile input in
  let status_p, out_p = run_stream input in
  let prom = slurp pfile in
  let json = slurp mfile in
  List.iter Sys.remove [ input; mfile; pfile ];
  Alcotest.(check int) "metrics run exits 0" 0 status_m;
  Alcotest.(check int) "plain run exits 0" 0 status_p;
  Alcotest.(check string) "stdout is byte-identical with --metrics" out_p
    out_m;
  Alcotest.(check bool)
    "conversions_total = input lines" true
    (prom_counter_line prom
       (Printf.sprintf "bdprint_conversions_total %d" lines));
  Alcotest.(check int) "every line converted ok" lines
    (prom_family_sum prom "bdprint_conversion_results_total");
  Alcotest.(check int)
    "fast path + fallback = reader calls" lines
    (prom_family_sum prom "bdprint_reader_tier_total");
  Alcotest.(check bool) "json snapshot mentions conversions_total" true
    (let needle = "\"bdprint_conversions_total\"" in
     let n = String.length needle and l = String.length json in
     let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
     go 0)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "concurrent increments" `Quick
            test_concurrent_counters;
          Alcotest.test_case "idempotent registration" `Quick
            test_idempotent_registration;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "log-linear bounds" `Quick test_log_linear;
          Alcotest.test_case "exemplars" `Quick test_exemplars;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "chrome trace-event golden" `Quick
            test_chrome_golden;
          Alcotest.test_case "request lifecycle" `Quick test_tracing_lifecycle;
          Alcotest.test_case "histograms sample one span in 32" `Quick
            test_span_histogram_sampling;
          Alcotest.test_case "traced span feeds ring and exemplar" `Quick
            test_span_traced_request;
          Alcotest.test_case "start_for 0 is a no-op" `Quick
            test_span_start_for_zero;
          Alcotest.test_case "explicit id beats the current id" `Quick
            test_span_explicit_id;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring, jsonl and dumps" `Quick
            test_flight_recorder;
        ] );
      ( "faults",
        [
          Alcotest.test_case "trip counters exported" `Quick
            test_fault_trip_metrics;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "--jobs 4 --metrics exact counters" `Quick
            test_metrics_end_to_end;
        ] );
    ]
