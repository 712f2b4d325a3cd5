(* Unit tests of Net.Line_reader, the bounded line reader shared by
   bdprint --stdin and bdprintd: buffer boundaries, the cap, line
   endings, unterminated input and interrupted reads.  Files give
   deterministic 8 KiB reads; pipes give reads that block. *)

module R = Net.Line_reader
module Budget = Robust.Budget

let pp_line ppf = function
  | R.Line s -> Format.fprintf ppf "Line %S" s
  | R.Last s -> Format.fprintf ppf "Last %S" s
  | R.Too_long { bytes; terminated } ->
    Format.fprintf ppf "Too_long {bytes = %d; terminated = %b}" bytes terminated
  | R.Interrupted -> Format.pp_print_string ppf "Interrupted"
  | R.Eof -> Format.pp_print_string ppf "Eof"

let line = Alcotest.testable pp_line ( = )

let with_budget_limit n f =
  Budget.with_budget { Budget.default with Budget.max_input_length = n } f

(* Every result of reading [contents] from a file, up to and including
   the first [Eof]. *)
let read_file contents =
  let path = Filename.temp_file "line_reader" ".in" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let r = R.create fd in
  let rec all acc =
    match R.read r with R.Eof -> List.rev (R.Eof :: acc) | l -> all (l :: acc)
  in
  let lines = all [] in
  Unix.close fd;
  Sys.remove path;
  lines

let check name contents expected =
  Alcotest.(check (list line)) name expected (read_file contents)

(* Lines of many lengths, so that line ends fall on, before and after
   every position of the 8 KiB reads, and some lines span three reads. *)
let test_refills () =
  let lines =
    List.init 400 (fun i ->
        String.make ((i * 7919 mod 997) + if i mod 50 = 0 then 17_000 else 0) 'x'
        ^ string_of_int i)
  in
  let contents = String.concat "\n" lines ^ "\n" in
  Alcotest.(check bool) "spans many reads" true (String.length contents > 20 * 8192);
  check "lines across refills" contents
    (List.map (fun s -> R.Line s) lines @ [ R.Eof ]);
  let at_edge = String.make 8191 'a' in
  check "newline is the last byte of a read"
    (at_edge ^ "\n0.5\n")
    [ R.Line at_edge; R.Line "0.5"; R.Eof ];
  let past_edge = String.make 8192 'b' in
  check "newline is the first byte of a read"
    (past_edge ^ "\n0.5\n")
    [ R.Line past_edge; R.Line "0.5"; R.Eof ]

(* With max_input_length 100 the cap is 164 bytes. *)
let test_cap () =
  with_budget_limit 100 (fun () ->
      let at = String.make 164 '1' and over = String.make 165 '1' in
      check "at the cap, then one byte over, then resynced"
        (at ^ "\n" ^ over ^ "\n0.1\n")
        [
          R.Line at;
          R.Too_long { bytes = 165; terminated = true };
          R.Line "0.1";
          R.Eof;
        ];
      (* an over-long line that starts mid-read and spans several *)
      let long = String.make 30_000 '2' in
      check "over-long across refills"
        ("0.5\n" ^ long ^ "\n0.25\n")
        [
          R.Line "0.5";
          R.Too_long { bytes = 30_000; terminated = true };
          R.Line "0.25";
          R.Eof;
        ]);
  let long = String.make 200_000 '3' in
  check "default cap" (long ^ "\n0.1\n")
    [ R.Too_long { bytes = 200_000; terminated = true }; R.Line "0.1"; R.Eof ]

let test_crlf_and_empty () =
  check "CR stays, empty lines are lines" "0.1\r\n\r\n\n2.5\r\n"
    [ R.Line "0.1\r"; R.Line "\r"; R.Line ""; R.Line "2.5\r"; R.Eof ];
  check "empty input" "" [ R.Eof ];
  check "only a newline" "\n" [ R.Line ""; R.Eof ]

let test_unterminated () =
  check "final line without a newline" "0.1\n2.5" [ R.Line "0.1"; R.Last "2.5"; R.Eof ];
  with_budget_limit 100 (fun () ->
      check "over-long final line without a newline"
        ("0.1\n" ^ String.make 200 '1')
        [ R.Line "0.1"; R.Too_long { bytes = 200; terminated = false }; R.Eof ])

(* A failed read(2) is not the end of input: bdprint reports it as an
   interrupted stream, and bdprintd drops the connection. *)
let test_read_error () =
  let fd = Unix.openfile Filename.current_dir_name [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match R.read (R.create fd) with
      | exception Unix.Unix_error (Unix.EISDIR, _, _) -> ()
      | l -> Alcotest.failf "reading a directory gave %a" pp_line l)

(* Budget.unlimited sets max_input_length to max_int: the cap must
   saturate rather than wrap negative and refuse every line. *)
let test_unlimited () =
  let big = String.make 102_400 '7' in
  Budget.with_budget Budget.unlimited (fun () ->
      check "100 KiB line read whole" (big ^ "\n0.1\n")
        [ R.Line big; R.Line "0.1"; R.Eof ])

(* A handled signal that lands while read(2) waits on an empty pipe is
   an interruption, not end of input, and bytes read before it are
   kept.  This program starts no thread or domain, so the process's
   SIGALRM reaches the reading thread. *)
let test_eintr () =
  let rd, wr = Unix.pipe () in
  let reads = ref 0 in
  let r = R.create ~before_read:(fun () -> incr reads) rd in
  let send s = ignore (Unix.write_substring wr s 0 (String.length s)) in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  (* a signal every [s] seconds: one that lands before read(2) blocks
     interrupts nothing, and the next one does *)
  let alarm s =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })
  in
  Fun.protect
    ~finally:(fun () ->
      alarm 0.;
      Sys.set_signal Sys.sigalrm old;
      Unix.close rd)
    (fun () ->
      send "0.";
      alarm 0.05;
      Alcotest.check line "interrupted" R.Interrupted (R.read r);
      alarm 0.;
      send "1\n2.5\n";
      Alcotest.check line "the line read before the signal is kept"
        (R.Line "0.1") (R.read r);
      Alcotest.check line "buffered line" (R.Line "2.5") (R.read r);
      (* one read(2) per refill: the first got "0.", the interrupted
         one and the one that got the rest *)
      Alcotest.(check int) "before_read before each read(2)" 3 !reads;
      Unix.close wr;
      Alcotest.check line "end of input" R.Eof (R.read r))

let () =
  Alcotest.run "line_reader"
    [
      ( "line_reader",
        [
          Alcotest.test_case "split across 8 KiB refills" `Quick test_refills;
          Alcotest.test_case "cap and resync" `Quick test_cap;
          Alcotest.test_case "CRLF and empty lines" `Quick test_crlf_and_empty;
          Alcotest.test_case "unterminated final line" `Quick test_unterminated;
          Alcotest.test_case "unlimited budget saturates the cap" `Quick
            test_unlimited;
          Alcotest.test_case "EINTR is an interruption" `Quick test_eintr;
          Alcotest.test_case "a read error raises" `Quick test_read_error;
        ] );
    ]
