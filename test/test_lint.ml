(* Self-tests of the bdlint analyzer (lib/lint): one known-bad fixture
   per rule family asserting the reported rule ids and locations, clean
   fixtures proving the sanctioned idioms are accepted, annotation
   suppression accounting, and the CLI's exit-code contract. *)

(* naive substring search; fixtures are tiny *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let manifest =
  Lint.Manifest.of_string
    "exception-boundary fixtures/boundary.ml\ntelemetry-dir fixtures/hot"

let run ?(filename = "fixtures/plain.ml") src =
  Lint.Engine.analyze_source ~manifest ~filename src

let rule_ids (o : Lint.Engine.outcome) =
  List.map (fun f -> Lint.Finding.rule_id f.Lint.Finding.rule) o.findings

let suppressed_total (o : Lint.Engine.outcome) =
  List.fold_left (fun a (_, n) -> a + n) 0 o.suppressed

let check_rules name expected outcome =
  Alcotest.(check (list string)) name expected (rule_ids outcome)

(* ------------------------------------------------------------------ *)
(* domain-safety *)

let domain_bad =
  {|
let cache = Hashtbl.create 16
let count = ref 0
let table = [| 1; 2; 3 |]
let grown = Array.make 8 0

type box = { mutable contents : int }
|}

let domain_good =
  {|
let hits = Atomic.make 0
let slot = Domain.DLS.new_key (fun () -> Array.make 4 0)
let lock = Mutex.create ()
let zero = [||]

let per_call () =
  let acc = ref 0 in
  let buf = Array.make 4 0 in
  (acc, buf)

let annotated = Array.init 9 (fun i -> i)
  [@@lint.domain_safe "read-only table"]

type guarded = { m : Mutex.t; mutable v : int } [@@lint.guarded_by "m"]
|}

let test_domain () =
  check_rules "bad fixture"
    [ "domain-safety"; "domain-safety"; "domain-safety"; "domain-safety";
      "domain-safety" ]
    (run domain_bad);
  let good = run domain_good in
  check_rules "good fixture" [] good;
  Alcotest.(check bool)
    "annotations counted as suppressions" true
    (suppressed_total good >= 2)

(* ------------------------------------------------------------------ *)
(* exn-escape *)

let exn_bad =
  {|
let f () = failwith "boom"
let g x = Option.get x
let h x = Nat.to_int_exn x
let i () = assert false
|}

let exn_good =
  {|
let f () = Error.catch (fun () -> failwith "absorbed")
let g x = try Option.get x with Invalid_argument _ -> 0
let h x = Error.raise_ x
let i () = invalid_arg "documented precondition"
  [@@lint.can_raise Invalid_argument]
|}

let test_exn () =
  check_rules "bad fixture"
    [ "exn-escape"; "exn-escape"; "exn-escape"; "exn-escape" ]
    (run ~filename:"fixtures/boundary.ml" exn_bad);
  let good = run ~filename:"fixtures/boundary.ml" exn_good in
  check_rules "good fixture" [] good;
  Alcotest.(check bool)
    "can_raise counted as a suppression" true
    (suppressed_total good >= 1);
  (* the rule only applies to manifest-listed boundary modules *)
  check_rules "non-boundary file exempt" [] (run exn_bad)

(* ------------------------------------------------------------------ *)
(* no-alloc *)

let alloc_bad =
  {|
let kernel a =
  let pair = (a, a) in
  let copy = Array.copy a in
  let n = Nat.of_int 3 in
  ignore (fun x -> x + 1);
  (pair, copy, n)
  [@@lint.no_alloc]
|}

let alloc_good =
  {|
let kernel a b =
  let carry = ref 0 in
  let rec loop i acc = if i = 0 then acc else loop (i - 1) (acc + a.(i)) in
  a.(0) <- b + !carry + loop 3 0;
  if Array.length a = 0 then
    (a.(0) <- Array.length (Array.make 4 0))
    [@lint.alloc_ok "cold growth path"]
  [@@lint.no_alloc]

let unannotated x = (x, Array.copy x)
|}

let test_alloc () =
  let bad = run alloc_bad in
  (* tuple let, Array.copy, Nat.of_int, anonymous closure, result tuple *)
  check_rules "bad fixture"
    [ "no-alloc"; "no-alloc"; "no-alloc"; "no-alloc"; "no-alloc" ]
    bad;
  let good = run alloc_good in
  check_rules "good fixture: refs, named loops, alloc_ok accepted" [] good;
  Alcotest.(check bool)
    "alloc_ok counted as a suppression" true
    (suppressed_total good >= 1)

(* ------------------------------------------------------------------ *)
(* telemetry-gate *)

let telemetry_bad =
  {|
let c = Telemetry.Metrics.counter ~help:"h" "requests"

let record () = Telemetry.Metrics.incr c

let observe_ungated h v = Metrics.observe h v
|}

let telemetry_good =
  {|
let c = Telemetry.Metrics.counter ~help:"h" "requests"

let record () = if Telemetry.Metrics.enabled () then Telemetry.Metrics.incr c

let compound flag = if flag && Metrics.enabled () then Metrics.add c 2

let tier_counter () =
  (Telemetry.Metrics.incr c) [@lint.always_on "stats contract"]

let read_side () = Telemetry.Metrics.value c
|}

(* the flight recorder's [record] allocates its detail string before the
   internal gate, so hot-path sites must gate the whole call *)
let flight_bad =
  {|
let shed reason = Telemetry.Flight.record ~kind:"shed" reason
|}

let flight_good =
  {|
let shed reason =
  if Telemetry.Flight.enabled () then Telemetry.Flight.record ~kind:"shed" reason

let dump_on_crash () = Telemetry.Flight.dump ~reason:"worker-crash"
|}

(* span pairing: a start or start_for without finish leaks an open
   span; finish without an opener observes someone else's clock *)
let spans_bad =
  {|
let leak x =
  let t0 = Telemetry.Tracing.start () in
  t0 + x

let leak_for tid =
  let t0 = Telemetry.Tracing.start_for tid in
  t0 + 1

let orphan t0 = Telemetry.Tracing.finish Telemetry.Tracing.Parse t0
|}

let spans_good =
  {|
let staged x =
  let t0 = Telemetry.Tracing.start () in
  let r = x * 2 in
  Telemetry.Tracing.finish Telemetry.Tracing.Parse t0;
  r

let written ~tid x =
  let t0 = Telemetry.Tracing.start_for tid in
  let r = x * 2 in
  Telemetry.Tracing.finish ~tid Telemetry.Tracing.Wire_write t0;
  r

let deliberate_handoff () = Telemetry.Tracing.start ()
[@@lint.always_on "token finished by caller"]
|}

let test_telemetry () =
  check_rules "bad fixture"
    [ "telemetry-gate"; "telemetry-gate" ]
    (run ~filename:"fixtures/hot/loop.ml" telemetry_bad);
  let good = run ~filename:"fixtures/hot/loop.ml" telemetry_good in
  check_rules "good fixture: gated, always_on, reads, registration" [] good;
  Alcotest.(check bool)
    "always_on counted as a suppression" true
    (suppressed_total good >= 1);
  check_rules "outside telemetry dirs exempt" [] (run telemetry_bad);
  check_rules "ungated flight record" [ "telemetry-gate" ]
    (run ~filename:"fixtures/hot/loop.ml" flight_bad);
  check_rules "gated flight record; dump exempt" []
    (run ~filename:"fixtures/hot/loop.ml" flight_good);
  check_rules "unpaired spans"
    [ "telemetry-gate"; "telemetry-gate"; "telemetry-gate" ]
    (run ~filename:"fixtures/hot/loop.ml" spans_bad);
  check_rules "paired and annotated spans" []
    (run ~filename:"fixtures/hot/loop.ml" spans_good)

(* ------------------------------------------------------------------ *)
(* call-graph propagation: exn-escape and no-alloc across units *)

let graph_helper =
  {|
let boom () = failwith "kernel invariant"
let fine () = 42
|}

let graph_exn_bad = {|
let entry () = Helper.boom ()
|}

let graph_exn_sup =
  {|
let entry () = Helper.boom ()
  [@@lint.can_raise Failure (* deliberate raising API; callers guard *)]
|}

let graph_exn_good = {|
let entry () = Error.catch (fun () -> Helper.boom ())
|}

let run2 ?(filename = "fixtures/boundary.ml") src =
  Lint.Engine.analyze_sources ~manifest
    [ ("fixtures/helper.ml", graph_helper); (filename, src) ]

let test_graph_exn () =
  check_rules "cross-unit raise reaches the boundary" [ "exn-escape" ]
    (run2 graph_exn_bad);
  let sup = run2 graph_exn_sup in
  check_rules "annotated boundary entry" [] sup;
  Alcotest.(check bool) "annotation counted as suppression" true
    (suppressed_total sup >= 1);
  check_rules "catcher absorbs the cross-unit raise" [] (run2 graph_exn_good);
  (* the same call outside any boundary file is nobody's business *)
  check_rules "non-boundary caller exempt" []
    (run2 ~filename:"fixtures/plain.ml" graph_exn_bad)

let alloc_graph_bad =
  {|
let helper x = Array.make x 0

let kernel x = Array.length (helper x)
  [@@lint.no_alloc]
|}

let alloc_graph_good =
  {|
let helper x = x land 0xff

let kernel x = helper x + 1
  [@@lint.no_alloc]

let table_slot x = Array.make x 0
  [@@lint.alloc_ok "init-time table fill, not on the digit path"]

let kernel2 x = Array.length (table_slot x)
  [@@lint.no_alloc]
|}

let test_graph_alloc () =
  check_rules "transitive allocation behind a call" [ "no-alloc" ]
    (run alloc_graph_bad);
  let good = run alloc_graph_good in
  check_rules "clean and sanctioned callees" [] good;
  Alcotest.(check bool) "alloc_ok callee counted as suppression" true
    (suppressed_total good >= 1)

(* ------------------------------------------------------------------ *)
(* blocking *)

let blocking_kernel_bad =
  {|
let park () = Unix.sleep 1

let kernel x = park (); x + 1
  [@@lint.no_alloc]
|}

let blocking_lock_bad =
  {|
let m = Mutex.create ()

let io () = Unix.sleep 1

let direct () =
  Mutex.lock m;
  Unix.sleep 1;
  Mutex.unlock m

let transitive () =
  Mutex.lock m;
  io ();
  Mutex.unlock m
|}

let blocking_good =
  {|
let m = Mutex.create ()

let release_first d =
  Mutex.lock m;
  let v = d + 1 in
  Mutex.unlock m;
  Unix.sleep v

let sanctioned () =
  Mutex.lock m;
  (Unix.sleep 1 [@lint.blocking_ok "bounded 1s backoff, reviewed"]);
  Mutex.unlock m
|}

let test_blocking () =
  check_rules "kernel reaching a blocking op" [ "blocking" ]
    (run blocking_kernel_bad);
  check_rules "I/O under a held lock, direct and via a call"
    [ "blocking"; "blocking" ]
    (run blocking_lock_bad);
  let good = run blocking_good in
  check_rules "lock released around I/O; annotated site" [] good;
  Alcotest.(check bool) "blocking_ok counted as suppression" true
    (suppressed_total good >= 1)

(* ------------------------------------------------------------------ *)
(* lock-order *)

let lockorder_cycle =
  {|
let a = Mutex.create ()
let b = Mutex.create ()

let ab () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a

let ba () =
  Mutex.lock b;
  Mutex.lock a;
  Mutex.unlock a;
  Mutex.unlock b
|}

let lockorder_transitive =
  {|
let a = Mutex.create ()
let b = Mutex.create ()

let helper () = Mutex.lock b; Mutex.unlock b
let outer () = Mutex.lock a; helper (); Mutex.unlock a
let other () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b
|}

let lockorder_self = {|
let a = Mutex.create ()
let twice () =
  Mutex.lock a;
  Mutex.lock a
|}

let lockorder_clean =
  {|
let a = Mutex.create ()
let b = Mutex.create ()

let one () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a

let two () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a
|}

let lockorder_contradicts =
  {|
let a = Mutex.create ()
let b = Mutex.create ()

let ab () =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a
  [@@lint.lock_order "plain:b<plain:a"]
|}

let lockorder_suppressed =
  {|
let a = Mutex.create ()
let twice () =
  Mutex.lock a;
  Mutex.lock a
  [@@lint.lock_order "plain:a<plain:a" (* re-entrant by construction *)]
|}

let test_lockorder () =
  check_rules "two-lock cycle" [ "lock-order" ] (run lockorder_cycle);
  check_rules "cycle through a call" [ "lock-order" ] (run lockorder_transitive);
  check_rules "self-deadlock" [ "lock-order" ] (run lockorder_self);
  check_rules "consistent order" [] (run lockorder_clean);
  check_rules "contradicts declared order" [ "lock-order" ]
    (run lockorder_contradicts);
  let sup = run lockorder_suppressed in
  check_rules "declared self-edge" [] sup;
  Alcotest.(check bool) "declaration counted as suppression" true
    (suppressed_total sup >= 1)

(* ------------------------------------------------------------------ *)
(* width certification *)

let width_bad =
  {|
let mul_over (x [@lint.width 40]) (y [@lint.width 40]) = x * y
  [@@lint.certified_width 62]

let shift_over (m [@lint.width 64]) = Int64.shift_left m 1
  [@@lint.certified_width 64]

let take (n [@lint.width 8]) = n + 1
  [@@lint.certified_width 62]

let caller (x [@lint.width 40]) = take x
  [@@lint.certified_width 62]
|}

let width_good =
  {|
let mul_ok (x [@lint.width 20]) (y [@lint.width 20]) = x * y
  [@@lint.certified_width 62]

let masked (x [@lint.width 62]) (y [@lint.width 62]) =
  (x land 0xFFFFF) * (y land 0xFFFFF)
  [@@lint.certified_width 62]

let shift_ok (m [@lint.width 64]) =
  Int64.shift_left (Int64.logand m 0x7FFFFFFFFFFFFFFFL) 1
  [@@lint.certified_width 64]

let take (n [@lint.width 8]) = n + 1
  [@@lint.certified_width 62]

let caller (x [@lint.width 40]) = take (x land 0xFF)
  [@@lint.certified_width 62]

let uncertified x y = x * y
|}

let test_width () =
  check_rules "overflow, 64-bit overflow, and an out-of-range argument"
    [ "width"; "width"; "width" ]
    (run width_bad);
  check_rules "interval analysis accepts the masked forms" []
    (run width_good)

(* ------------------------------------------------------------------ *)
(* stale manifest entries (non-gating) *)

let test_stale () =
  let stale = Lint.Manifest.of_string "exception-boundary fixtures/gone.ml" in
  let o =
    Lint.Engine.analyze_sources ~manifest:stale ~stale_check:true
      [ ("fixtures/plain.ml", "let x = 1\n") ]
  in
  check_rules "stale entry reported" [ "manifest-stale" ] o;
  Alcotest.(check int) "manifest-stale is non-gating" 0
    (List.length (Lint.Engine.gating_findings o));
  (* a matching entry is not stale; the check is opt-in *)
  check_rules "matching entry" []
    (Lint.Engine.analyze_sources ~manifest ~stale_check:true
       [ ("fixtures/boundary.ml", "let x = 1\n");
         ("fixtures/hot/loop.ml", "let y = 2\n") ]);
  check_rules "stale check off by default"
    []
    (Lint.Engine.analyze_sources ~manifest:stale
       [ ("fixtures/plain.ml", "let x = 1\n") ])

(* ------------------------------------------------------------------ *)
(* engine plumbing *)

let test_engine () =
  let o = run domain_bad in
  Alcotest.(check int) "files counted" 1 o.files;
  let first = List.hd o.findings in
  Alcotest.(check string) "finding file" "fixtures/plain.ml"
    first.Lint.Finding.file;
  Alcotest.(check bool) "line numbers 1-based" true
    (first.Lint.Finding.line >= 1);
  (* merged outcomes accumulate counts *)
  let m = Lint.Engine.merge o (run ~filename:"fixtures/boundary.ml" exn_bad) in
  Alcotest.(check int) "merge files" 2 m.files;
  Alcotest.(check int) "merge findings"
    (List.length o.findings + 4)
    (List.length m.findings);
  (* JSON rendering names every rule *)
  let json = Lint.Engine.to_json m in
  List.iter
    (fun r ->
      let id = Lint.Finding.rule_id r in
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" id)
        true (contains json id))
    Lint.Finding.all_rules;
  (* a parse error is a structured failure, not a crash *)
  match run "let = (" with
  | exception Lint.Engine.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

(* ------------------------------------------------------------------ *)
(* manifest *)

let test_manifest () =
  Alcotest.(check bool) "boundary suffix match" true
    (Lint.Manifest.is_boundary manifest
       "_build/default/fixtures/boundary.ml");
  Alcotest.(check bool) "non-boundary" false
    (Lint.Manifest.is_boundary manifest "lib/reader/exact.ml");
  Alcotest.(check bool) "telemetry dir window match" true
    (Lint.Manifest.in_telemetry_dir manifest
       "/root/x/fixtures/hot/inner.ml");
  Alcotest.(check bool) "telemetry non-match" false
    (Lint.Manifest.in_telemetry_dir manifest "fixtures/cold/inner.ml");
  Alcotest.check_raises "malformed directive"
    (Lint.Manifest.Malformed "line 1: unknown or malformed directive \"bogus\"")
    (fun () -> ignore (Lint.Manifest.of_string "bogus directive here"))

(* ------------------------------------------------------------------ *)
(* the installed CLI: exit codes and JSON output *)

let bdlint_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdlint.exe"

let in_temp_fixture ~source f =
  let dir = Filename.temp_file "bdlint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "fixture.ml" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Unix.rmdir dir)
    (fun () -> f dir)

let run_cli args =
  let tmp = Filename.temp_file "bdlint" ".out" in
  let status =
    Sys.command (Printf.sprintf "%s %s > %s 2>/dev/null" bdlint_exe args tmp)
  in
  let ic = open_in_bin tmp in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  (status, out)

let test_cli () =
  in_temp_fixture ~source:"let bad = ref 0\n" (fun dir ->
      let status, _ = run_cli dir in
      Alcotest.(check int) "findings exit 1" 1 status;
      let status, json = run_cli ("--format json " ^ dir) in
      Alcotest.(check int) "json exit 1" 1 status;
      Alcotest.(check bool) "json names the rule" true
        (contains json {|"rule":"domain-safety"|}));
  in_temp_fixture ~source:"let fine = Atomic.make 0\n" (fun dir ->
      let status, _ = run_cli ("--quiet " ^ dir) in
      Alcotest.(check int) "clean exit 0" 0 status);
  let status, _ = run_cli "--manifest does-not-exist.manifest lib" in
  Alcotest.(check int) "usage error exit 2" 2 status

(* --metrics writes through the shared telemetry writer: the
   Prometheus text goes to FILE with .json replaced by .prom, or with
   .prom appended to any other name. *)
let test_cli_metrics () =
  in_temp_fixture ~source:"let fine = Atomic.make 0\n" (fun dir ->
      List.iter
        (fun (suffix, prom_of) ->
          let file = Filename.temp_file "bdlint-metrics" suffix in
          let prom = prom_of file in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun f -> if Sys.file_exists f then Sys.remove f)
                [ file; prom ])
            (fun () ->
              let status, _ =
                run_cli (Printf.sprintf "--quiet --metrics %s %s" file dir)
              in
              Alcotest.(check int) ("exit " ^ suffix) 0 status;
              let ic = open_in_bin prom in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              Alcotest.(check bool)
                ("prometheus text beside the " ^ suffix ^ " file")
                true
                (contains text "bdlint_files_scanned 1")))
        [
          (".json", fun f -> Filename.chop_suffix f ".json" ^ ".prom");
          (".txt", fun f -> f ^ ".prom");
        ])

(* The CI ratchet: counts at the committed baseline pass, any count
   above it fails, and the diff artifact names the rising counter. *)
let test_cli_ratchet () =
  let source =
    "let grows = Hashtbl.create 16\n\
    \  [@@lint.domain_safe \"test fixture: single-writer\"]\n"
  in
  in_temp_fixture ~source (fun dir ->
      let base = Filename.temp_file "bdlint" ".baseline.json" in
      let diff = Filename.temp_file "bdlint" ".diff.json" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove base;
          Sys.remove diff)
        (fun () ->
          let status, _ =
            run_cli
              (Printf.sprintf "--quiet --write-baseline %s %s" base dir)
          in
          Alcotest.(check int) "suppressed fixture exit 0" 0 status;
          let status, _ =
            run_cli (Printf.sprintf "--quiet --baseline %s %s" base dir)
          in
          Alcotest.(check int) "at the baseline exit 0" 0 status;
          (* tighten the baseline to zero: the ratchet fires even though
             there is no finding, and the diff names the counter *)
          let oc = open_out base in
          output_string oc "{\n  \"findings\": {},\n  \"suppressions\": {}\n}\n";
          close_out oc;
          let status, _ =
            run_cli
              (Printf.sprintf "--quiet --baseline %s --baseline-diff %s %s"
                 base diff dir)
          in
          Alcotest.(check int) "above the baseline exit 1" 1 status;
          let ic = open_in_bin diff in
          let d = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check bool) "diff names the rising counter" true
            (contains d "suppressions/domain-safety")))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "domain-safety" `Quick test_domain;
          Alcotest.test_case "exn-escape" `Quick test_exn;
          Alcotest.test_case "no-alloc" `Quick test_alloc;
          Alcotest.test_case "telemetry-gate" `Quick test_telemetry;
          Alcotest.test_case "blocking" `Quick test_blocking;
          Alcotest.test_case "lock-order" `Quick test_lockorder;
          Alcotest.test_case "width" `Quick test_width;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "exn-escape propagation" `Quick test_graph_exn;
          Alcotest.test_case "no-alloc propagation" `Quick test_graph_alloc;
          Alcotest.test_case "stale manifest entries" `Quick test_stale;
        ] );
      ( "engine",
        [
          Alcotest.test_case "outcomes and renderings" `Quick test_engine;
          Alcotest.test_case "manifest" `Quick test_manifest;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit codes" `Quick test_cli;
          Alcotest.test_case "baseline ratchet" `Quick test_cli_ratchet;
          Alcotest.test_case "metrics files" `Quick test_cli_metrics;
        ] );
    ]
