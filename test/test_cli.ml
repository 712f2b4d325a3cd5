(* End-to-end tests of the bdprint command-line tool: run the built
   executable and check its stdout. *)

let bdprint args =
  (* this test binary lives in _build/default/test; the CLI next door *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/bdprint.exe"
  in
  let tmp = Filename.temp_file "bdprint" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>/dev/null" exe args tmp in
  let status = Sys.command cmd in
  let ic = open_in tmp in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove tmp;
  (status, List.rev !lines)

let check_output name args expected =
  let status, lines = bdprint args in
  Alcotest.(check int) (name ^ " exit") 0 status;
  Alcotest.(check (list string)) name expected lines

let test_free () =
  check_output "shortest" "0.1 1e23" [ "0.1"; "1e23" ];
  check_output "negative and specials" "-- -1.5 inf nan" [ "-1.5"; "inf"; "nan" ];
  (* reading and printing share the mode, so any input echoes in shortest
     form under that mode; the asymmetric paper example (read even, print
     away) needs the library API rather than the CLI *)
  check_output "mode away round-trips" "--mode away 1e23" [ "1e23" ];
  check_output "mode zero round-trips" "--mode zero 0.3" [ "0.3" ]

let test_fixed () =
  check_output "relative digits binary32" "--digits 10 --format binary32 0.333333333"
    [ "0.33333334##" ];
  check_output "places with hash" "--places 20 100"
    [ "100.000000000000000#####" ];
  check_output "pi to 4 places" "--places 4 3.14159265358979" [ "3.1416" ]

let test_bases_and_hex () =
  check_output "base 16" "--base 16 255.9375" [ "ff.f" ];
  check_output "base 2" "--base 2 0.625" [ "0.101" ];
  check_output "hex input" "0x1.8p+1" [ "3.0" ];
  check_output "hex output" "--hex 0.1" [ "0x1.999999999999ap-4" ]

let test_errors () =
  let status, _ = bdprint "not-a-number" in
  Alcotest.(check bool) "bad input fails" true (status <> 0);
  let status, _ = bdprint "--digits 0 1.0" in
  Alcotest.(check bool) "digits 0 fails cleanly" true (status <> 0);
  let status, _ = bdprint "--digits 3 --places 2 1.0" in
  Alcotest.(check bool) "conflicting flags fail" true (status <> 0)

(* Full-pipe variant: feed stdin, capture stdout and stderr separately,
   optionally with an environment prefix (for BDPRINT_FAULTS).  [exe]
   names another binary of bin/ (default bdprint). *)
let bdprint_full ?(env = "") ?(stdin = "") ?(exe = "bdprint") args =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      ("bin/" ^ exe ^ ".exe")
  in
  let tmp_in = Filename.temp_file "bdprint" ".in" in
  let tmp_out = Filename.temp_file "bdprint" ".out" in
  let tmp_err = Filename.temp_file "bdprint" ".err" in
  let oc = open_out tmp_in in
  output_string oc stdin;
  close_out oc;
  let cmd =
    Printf.sprintf "%s %s %s < %s > %s 2> %s" env exe args tmp_in tmp_out
      tmp_err
  in
  let status = Sys.command cmd in
  let slurp path =
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  in
  let out = slurp tmp_out and err = slurp tmp_err in
  Sys.remove tmp_in;
  Sys.remove tmp_out;
  Sys.remove tmp_err;
  (status, out, err)

let contains line needle =
  let n = String.length needle and l = String.length line in
  let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
  go 0

let test_stdin_stream () =
  (* clean stream: converts every line, skips blanks, exits 0 *)
  let status, out, err =
    bdprint_full ~stdin:"0.1\n1e23\n\n2.5e-1\n" "--stdin"
  in
  Alcotest.(check int) "clean stream exit" 0 status;
  Alcotest.(check (list string)) "clean stream output"
    [ "0.1"; "1e23"; "0.25" ] out;
  Alcotest.(check (list string)) "clean stream stderr" [] err;
  (* bad lines are reported with their line number and the stream
     continues *)
  let status, out, err =
    bdprint_full ~stdin:"0.1\nbogus\n1e999999999\n" "--stdin"
  in
  Alcotest.(check bool) "dirty stream exits nonzero" true (status <> 0);
  Alcotest.(check (list string)) "dirty stream still converts the rest"
    [ "0.1"; "inf" ] out;
  Alcotest.(check bool) "stderr names the line" true
    (List.exists (fun l -> contains l "line 2" && contains l "syntax") err);
  (* per-number fixed format works through the stream too *)
  let status, out, _ =
    bdprint_full ~stdin:"3.14159265358979\n100\n" "--stdin --places 4"
  in
  Alcotest.(check int) "fixed stream exit" 0 status;
  Alcotest.(check (list string)) "fixed stream output"
    [ "3.1416"; "100.0000" ] out

let test_stdin_max_errors () =
  let status, out, err =
    bdprint_full ~stdin:"x\ny\n0.1\n" "--stdin --max-errors 2"
  in
  Alcotest.(check bool) "aborts nonzero" true (status <> 0);
  Alcotest.(check (list string)) "stops before the good line" [] out;
  Alcotest.(check bool) "stderr mentions the abort" true
    (List.exists (fun l -> contains l "max-errors") err);
  (* without the cap the same stream drains fully *)
  let status, out, _ = bdprint_full ~stdin:"x\ny\n0.1\n" "--stdin" in
  Alcotest.(check bool) "uncapped still nonzero" true (status <> 0);
  Alcotest.(check (list string)) "uncapped drains" [ "0.1" ] out;
  (* --stdin and positional arguments are mutually exclusive *)
  let status, _, _ = bdprint_full ~stdin:"0.1\n" "--stdin 2.5" in
  Alcotest.(check bool) "conflict rejected" true (status <> 0)

let test_budget_misuse () =
  let status, _, err = bdprint_full "--places 1000000 100" in
  Alcotest.(check bool) "huge --places fails" true (status <> 0);
  Alcotest.(check bool) "names the budget" true
    (List.exists (fun l -> contains l "budget" && contains l "--places") err);
  let status, _, err = bdprint_full "--digits 1000000 100" in
  Alcotest.(check bool) "huge --digits fails" true (status <> 0);
  Alcotest.(check bool) "names the budget" true
    (List.exists (fun l -> contains l "budget" && contains l "--digits") err);
  (* extremes that are merely large still work *)
  let status, out, _ = bdprint_full "--places 100 0.5" in
  Alcotest.(check int) "places 100 fine" 0 status;
  Alcotest.(check int) "one output line" 1 (List.length out)

let test_fault_env () =
  let status, _, err =
    bdprint_full ~env:"BDPRINT_FAULTS=nat.divmod" "0.1"
  in
  Alcotest.(check bool) "fault makes it fail" true (status <> 0);
  Alcotest.(check bool) "fault is a structured internal error" true
    (List.exists
       (fun l -> contains l "internal error" && contains l "nat.divmod")
       err);
  Alcotest.(check bool) "no uncaught exception" true
    (not (List.exists (fun l -> contains l "Fatal error") err));
  (* armed fault + stream: every line degrades, none crash *)
  let status, out, err =
    bdprint_full ~env:"BDPRINT_FAULTS=scaling.scale" ~stdin:"0.1\n0.2\n"
      "--stdin"
  in
  Alcotest.(check bool) "stream under fault fails" true (status <> 0);
  Alcotest.(check (list string)) "no output under fault" [] out;
  Alcotest.(check int) "two per-line errors plus summary" 2
    (List.length
       (List.filter (fun l -> contains l "injected fault") err))

let test_exit_codes () =
  (* each failure class has its own exit code; the stream reports the
     most severe class seen: internal(4) > budget(3) > syntax/range(2) *)
  let status, _, _ = bdprint_full ~stdin:"bogus\n" "--stdin" in
  Alcotest.(check int) "syntax exits 2" 2 status;
  let long_line = String.make 70_000 '1' in
  let status, _, err = bdprint_full ~stdin:(long_line ^ "\n") "--stdin" in
  Alcotest.(check int) "budget exits 3" 3 status;
  Alcotest.(check bool) "budget named on stderr" true
    (List.exists (fun l -> contains l "budget") err);
  let status, _, _ =
    bdprint_full ~stdin:("bogus\n" ^ long_line ^ "\n0.1\n") "--stdin"
  in
  Alcotest.(check int) "mixed stream reports most severe (3)" 3 status;
  let status, _, _ =
    bdprint_full ~env:"BDPRINT_FAULTS=nat.divmod" ~stdin:"0.1\n" "--stdin"
  in
  Alcotest.(check int) "internal exits 4" 4 status;
  let status, _, _ =
    bdprint_full ~env:"BDPRINT_FAULTS=nat.divmod" ~stdin:"bogus\n0.1\n"
      "--stdin"
  in
  Alcotest.(check int) "internal beats syntax" 4 status

let test_deadline_flag () =
  let status, out, err =
    bdprint_full ~stdin:"0.1\n" "--stdin --deadline-ms 0"
  in
  Alcotest.(check int) "expired deadline exits 3 (budget class)" 3 status;
  Alcotest.(check (list string)) "no output" [] out;
  Alcotest.(check bool) "stderr names the deadline" true
    (List.exists (fun l -> contains l "deadline") err);
  (* a sane deadline changes nothing on a fast input *)
  let status, out, _ =
    bdprint_full ~stdin:"0.1\n" "--stdin --deadline-ms 5000"
  in
  Alcotest.(check int) "generous deadline exit" 0 status;
  Alcotest.(check (list string)) "generous deadline output" [ "0.1" ] out

let test_unknown_fault_point () =
  (* unknown names in BDPRINT_FAULTS warn once per distinct name on
     stderr and are ignored; the conversion itself is untouched *)
  let status, out, err =
    bdprint_full
      ~env:"BDPRINT_FAULTS=no.such.point,no.such.point,no.such.point"
      ~stdin:"0.1\n" "--stdin"
  in
  Alcotest.(check int) "unknown point is not fatal" 0 status;
  Alcotest.(check (list string)) "output unaffected" [ "0.1" ] out;
  let unknown_warnings =
    List.filter
      (fun l ->
        contains l "unknown or malformed fault entry"
        && contains l "no.such.point")
      err
  in
  Alcotest.(check int) "warned exactly once per distinct name" 1
    (List.length unknown_warnings);
  (* valid entries alongside an unknown one still arm *)
  let status, _, err =
    bdprint_full ~env:"BDPRINT_FAULTS=no.such.point,nat.divmod" ~stdin:"0.1\n"
      "--stdin"
  in
  Alcotest.(check int) "valid entry still arms" 4 status;
  Alcotest.(check bool) "both warning and fault" true
    (List.exists (fun l -> contains l "unknown or malformed fault entry") err
    && List.exists (fun l -> contains l "injected fault") err)

let test_stats_flag () =
  let status, out, err =
    bdprint_full ~stdin:"0.1\n1e23\n" "--stdin --stats"
  in
  Alcotest.(check int) "stats exit" 0 status;
  Alcotest.(check (list string)) "stats leaves stdout alone"
    [ "0.1"; "1e23" ] out;
  Alcotest.(check (list string)) "stats on stderr"
    [
      "stats: submitted=2 ok=2";
      "stats: errors: syntax=0 range=0 budget=0 internal=0";
    ]
    err;
  let status, _, _ = bdprint_full "--stats 0.1" in
  Alcotest.(check bool) "--stats without --stdin rejected" true (status <> 0)

(* Interrupted streams: SIGINT mid-stream and a downstream consumer
   closing the pipe (SIGPIPE) must both flush --metrics and exit with
   the distinct code 5 instead of dying on the default signal action. *)

let cli_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/bdprint.exe"

let run_script body =
  let tmp = Filename.temp_file "bdprint_script" ".sh" in
  let oc = open_out tmp in
  output_string oc body;
  close_out oc;
  let status = Sys.command (Printf.sprintf "sh %s" (Filename.quote tmp)) in
  Sys.remove tmp;
  status

let test_sigint_stream () =
  let script =
    Printf.sprintf
      {|
set -e
exe=%s
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/in"
"$exe" --stdin --metrics "$dir/m.json" < "$dir/in" > "$dir/out" 2> "$dir/err" &
pid=$!
exec 3> "$dir/in"
printf '0.1\n0.2\n' >&3
sleep 0.4
kill -INT $pid
sleep 0.3
exec 3>&-
set +e
wait $pid
code=$?
[ -s "$dir/m.json" ] || exit 90
[ -s "$dir/m.prom" ] || exit 92
grep -q interrupted "$dir/err" || exit 91
grep -q '^0.1$' "$dir/out" || exit 93
exit $code
|}
      (Filename.quote (cli_exe ()))
  in
  Alcotest.(check int) "SIGINT flushes metrics and exits 5" 5
    (run_script script)

let test_sigpipe_stream () =
  let script =
    Printf.sprintf
      {|
set -e
exe=%s
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/fifo"
head -2 < "$dir/fifo" > /dev/null &
reader=$!
set +e
yes 0.1 | "$exe" --stdin --metrics "$dir/m.json" > "$dir/fifo" 2> "$dir/err"
code=$?
wait $reader
[ -s "$dir/m.json" ] || exit 90
grep -q interrupted "$dir/err" || exit 91
exit $code
|}
      (Filename.quote (cli_exe ()))
  in
  Alcotest.(check int) "closed pipe exits 5" 5 (run_script script)

(* SIGINT must stop a stream that waits on an open, empty stdin: the
   reader returns on EINTR instead of retrying the read.  The FIFO
   stays open, so only the signal can end the stream, and a watchdog
   kills bdprint if it is still running 2 s later. *)
let test_sigint_idle_stream () =
  let script =
    Printf.sprintf
      {|
set -e
exe=%s
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/in"
"$exe" --stdin < "$dir/in" > "$dir/out" 2> "$dir/err" &
pid=$!
exec 3> "$dir/in"
printf '0.1\n' >&3
# the answer is flushed just before bdprint blocks on the next read
i=0
until grep -q '^0.1$' "$dir/out"; do
  i=$((i + 1))
  [ $i -le 50 ] || exit 95
  sleep 0.1
done
sleep 0.2
kill -INT $pid
(sleep 2; kill -KILL $pid) > /dev/null 2>&1 &
watchdog=$!
set +e
wait $pid
code=$?
kill $watchdog 2>/dev/null
exec 3>&-
exit $code
|}
      (Filename.quote (cli_exe ()))
  in
  Alcotest.(check int) "idle stream exits 5 on SIGINT" 5 (run_script script)

(* A stdin that cannot be read interrupts the stream; it is not a
   clean, empty one. *)
let test_unreadable_stdin () =
  Alcotest.(check int) "stdin is a directory" 5
    (Sys.command
       (Printf.sprintf "%s --stdin < %s 2>/dev/null"
          (Filename.quote (cli_exe ()))
          Filename.current_dir_name))

(* The next line on [fd] within [timeout] seconds, read a byte at a
   time so that nothing is buffered past it. *)
let read_line_within fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Buffer.create 64 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents b)
        | _ ->
          Buffer.add_char b (Bytes.get byte 0);
          go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* An interactive peer writes one line and waits for its answer before
   it writes the next.  bdprint writes stdout in blocks, so each answer
   must be flushed before bdprint blocks on stdin again; a build that
   missed it would fail here on a 5 s timeout rather than hang. *)
let test_coprocess () =
  let script =
    [ ("0.1", `Out "0.1"); ("", `Blank); ("bogus", `Err); ("1e23", `Out "1e23");
      ("1e999999999", `Out "inf"); ("   ", `Blank); ("2.5", `Out "2.5");
      ("-0", `Out "-0"); ("nan", `Out "nan"); ("0x1.8p+1", `Out "3.0");
      ("1e-400", `Out "0"); ("123456789012345678901234567890",
        `Out "1.2345678901234568e29"); ("abc", `Err); ("5e-324", `Out "5e-324");
      ("1.7976931348623157e308", `Out "1.7976931348623157e308");
      ("0.3", `Out "0.3"); ("inf", `Out "inf"); ("-1.5", `Out "-1.5");
      ("12", `Out "12.0"); ("1e", `Err); ("0.1", `Out "0.1");
      ("1_000", `Out "1000.0") ]
  in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let run () =
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let err_r, err_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process (cli_exe ())
        [| "bdprint"; "--stdin" |]
        in_r out_w err_w
    in
    List.iter Unix.close [ in_r; out_w; err_w ];
    let reaped = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !reaped then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          ignore (Unix.waitpid [] pid)
        end;
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
          [ in_w; out_r; err_r ])
      (fun () ->
        let name = "bdprint --stdin" in
        List.iteri
          (fun i (input, expect) ->
            let line = input ^ "\n" in
            ignore (Unix.write_substring in_w line 0 (String.length line));
            let answer fd = read_line_within fd ~timeout:5. in
            match expect with
            | `Blank -> ()
            | `Out out ->
              Alcotest.(check (option string))
                (Printf.sprintf "%s: answer to %S" name input)
                (Some out) (answer out_r)
            | `Err ->
              let prefix = Printf.sprintf "error: line %d: syntax" (i + 1) in
              let got = answer err_r in
              Alcotest.(check bool)
                (Printf.sprintf "%s: error for %S, got %s" name input
                   (Option.value got ~default:"nothing in 5 s"))
                true
                (match got with Some l -> contains l prefix | None -> false))
          script;
        Unix.close in_w;
        let _, status = Unix.waitpid [] pid in
        reaped := true;
        Alcotest.(check bool) (name ^ ": exits 2") true (status = Unix.WEXITED 2);
        Alcotest.(check (option string)) (name ^ ": no extra output") None
          (read_line_within out_r ~timeout:0.))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe)
    run

(* Errors go to stderr after the answers before them left stdout, so
   [2>&1] keeps input order; a final line with no newline converts. *)
let test_output_order () =
  let tmp = Filename.temp_file "bdprint" ".out" in
  let status =
    Sys.command
      (Printf.sprintf "printf '0.1\\nbogus\\n2.5' | %s --stdin > %s 2>&1"
         (Filename.quote (cli_exe ())) (Filename.quote tmp))
  in
  let ic = open_in tmp in
  let merged = In_channel.input_all ic in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check int) "exit" 2 status;
  Alcotest.(check string) "merged order"
    "0.1\n\
     error: line 2: syntax error: expected digits at index 0 in \"bogus\"\n\
     2.5\n\
     error: 1 input line(s) failed\n"
    merged

(* Out-of-domain flags and failed one-shot inputs exit with their
   failure class, like a stream, after one "error: ..." line; only
   cmdliner's own parse and usage errors exit 124.  A failed argument's
   error follows the output of the arguments before it. *)
let test_one_shot_exit_codes () =
  List.iter
    (fun (args, code, stderr) ->
      let status, _, err = bdprint_full args in
      Alcotest.(check int) ("exit " ^ args) code status;
      Alcotest.(check (list string)) ("stderr " ^ args) [ stderr ] err)
    [
      ("--base 99 0.1", 2, "error: range error: base: 99 not in 2..36");
      ("--digits 0 0.1", 2, "error: range error: --digits: 0 < 1");
      ( "--digits 100000 0.1",
        3,
        "error: budget exceeded: --digits: 100000 > limit 20000" );
      ( "bogus",
        2,
        "error: syntax error: expected digits at index 0 in \"bogus\"" );
      ("--deadline-ms 5 0.1", 124, "bdprint: --deadline-ms requires --stdin");
    ];
  (* the stream has one driver, with no --jobs option *)
  let status, _, err = bdprint_full ~stdin:"0.1\n" "--stdin --jobs 2" in
  Alcotest.(check int) "exit --stdin --jobs 2" 124 status;
  Alcotest.(check (option string)) "stderr --stdin --jobs 2"
    (Some "bdprint: unknown option '--jobs'.")
    (List.nth_opt err 0);
  let tmp = Filename.temp_file "bdprint" ".out" in
  let status =
    Sys.command
      (Printf.sprintf "%s 0.1 bogus 2.5 > %s 2>&1"
         (Filename.quote (cli_exe ())) (Filename.quote tmp))
  in
  let ic = open_in tmp in
  let merged = In_channel.input_all ic in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check int) "merged exit" 2 status;
  Alcotest.(check string) "merged order"
    "0.1\n\
     error: syntax error: expected digits at index 0 in \"bogus\"\n\
     2.5\n"
    merged

(* A line over the input-length cap is counted and discarded, never
   held: bdprint gives the same budget error as a line that reached the
   reader's own check, goes on with the next line, and its heap stays
   far below the line's 2M words. *)
let test_overlong_line () =
  let line = String.make (16 * 1024 * 1024) '1' in
  let args = "--stdin" in
  let error =
    "error: line 1: budget exceeded: input length: 16777216 > limit 65536"
  in
  let top_heap_words err =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "top_heap_words: %d" Fun.id)
      err
  in
  let stdin = line ^ "\n0.1\n" in
  let status, out, err = bdprint_full ~stdin args in
  Alcotest.(check int) "budget exit" 3 status;
  Alcotest.(check (list string)) "next line converts" [ "0.1" ] out;
  Alcotest.(check (list string)) "stderr"
    [ error; "error: 1 input line(s) failed" ]
    err;
  let _, _, err = bdprint_full ~env:"OCAMLRUNPARAM=v=0x400" ~stdin args in
  (match top_heap_words err with
  | Some w ->
    Alcotest.(check bool)
      (Printf.sprintf "top_heap_words %d < 1M" w)
      true (w < 1_000_000)
  | None -> Alcotest.fail "no GC statistics on stderr");
  let status, out, err = bdprint_full ~stdin:line args in
  Alcotest.(check int) "unterminated: budget exit" 3 status;
  Alcotest.(check (list string)) "unterminated: no output" [] out;
  Alcotest.(check (list string)) "unterminated: stderr"
    [ error; "error: 1 input line(s) failed" ]
    err

(* Both EXAMPLES sections show a literal \n inside printf '...'.  A
   single backslash there is an invalid cmdliner escape, which replaces
   the whole page with an error on stderr. *)
let test_help_pages () =
  List.iter
    (fun (exe, example) ->
      let status, out, err = bdprint_full ~exe "--help=plain" in
      Alcotest.(check int) (exe ^ " --help exit") 0 status;
      Alcotest.(check (list string)) (exe ^ " --help stderr") [] err;
      Alcotest.(check bool)
        (exe ^ " example keeps its \\n")
        true
        (List.exists (fun l -> contains l example) out))
    [
      ("bdprint", {|printf '0.1\n1e23\nbogus\n' | bdprint --stdin|});
      ("bdprintd", {|printf 'CONV 0.1\nQUIT\n' | nc 127.0.0.1 7070|});
    ]

let () =
  Alcotest.run "cli"
    [
      ( "bdprint",
        [
          Alcotest.test_case "free format" `Quick test_free;
          Alcotest.test_case "fixed format" `Quick test_fixed;
          Alcotest.test_case "bases and hex" `Quick test_bases_and_hex;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "stdin streaming" `Quick test_stdin_stream;
          Alcotest.test_case "stdin max-errors" `Quick test_stdin_max_errors;
          Alcotest.test_case "budget misuse" `Quick test_budget_misuse;
          Alcotest.test_case "fault injection env" `Quick test_fault_env;
          Alcotest.test_case "exit codes per class" `Quick test_exit_codes;
          Alcotest.test_case "deadline flag" `Quick test_deadline_flag;
          Alcotest.test_case "unknown fault point" `Quick
            test_unknown_fault_point;
          Alcotest.test_case "stats flag" `Quick test_stats_flag;
          Alcotest.test_case "SIGINT interrupts stream" `Quick
            test_sigint_stream;
          Alcotest.test_case "SIGPIPE interrupts stream" `Quick
            test_sigpipe_stream;
          Alcotest.test_case "SIGINT interrupts idle stream" `Quick
            test_sigint_idle_stream;
          Alcotest.test_case "unreadable stdin interrupts stream" `Quick
            test_unreadable_stdin;
          Alcotest.test_case "co-process gets every answer" `Quick
            test_coprocess;
          Alcotest.test_case "one-shot and flag exit codes" `Quick
            test_one_shot_exit_codes;
          Alcotest.test_case "merged output keeps input order" `Quick
            test_output_order;
          Alcotest.test_case "over-long line is not held" `Quick
            test_overlong_line;
          Alcotest.test_case "help pages render" `Quick test_help_pages;
        ] );
    ]
