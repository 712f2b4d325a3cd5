(* bdprint: command-line floating-point conversion using the Burger-Dybvig
   algorithms.  Every input is read and printed free-format, fixed-format
   or in hex by Net.Conversion.convert, the conversion bdprintd runs.

   Robustness: every failure is a structured Robust.Error — syntax,
   range, budget or internal — and with [--stdin] the tool is a streaming
   filter that reports per-line errors on stderr without aborting the
   stream ([--max-errors N] bounds the tolerance, [--deadline-ms MS]
   gives each line a wall-clock deadline).  [--stats] reports the
   stream's counters on exit and [--metrics FILE] dumps the full
   telemetry registry as JSON (FILE) plus Prometheus text (FILE with a
   .prom suffix).  Exit codes, one-shot and streaming, are per failure
   class: 2 syntax/range (out-of-domain flags included), 3 budget (incl.
   deadline), 4 internal — and 5 when SIGINT or a closed output pipe
   cut the stream short (partial results and --metrics still flush). *)

open Cmdliner
module Error = Robust.Error
module Budget = Robust.Budget
module Client = Net.Client
module Conversion = Net.Conversion

let mode_conv =
  let parse = function
    | "even" | "nearest-even" -> Ok Fp.Rounding.To_nearest_even
    | "away" | "nearest-away" -> Ok Fp.Rounding.To_nearest_away
    | "nearest-zero" -> Ok Fp.Rounding.To_nearest_toward_zero
    | "zero" | "trunc" -> Ok Fp.Rounding.Toward_zero
    | "up" | "ceiling" -> Ok Fp.Rounding.Toward_positive
    | "down" | "floor" -> Ok Fp.Rounding.Toward_negative
    | s -> Error (`Msg (Printf.sprintf "unknown rounding mode %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Fp.Rounding.to_string m))

let format_conv =
  let parse = function
    | "binary16" | "half" -> Ok Fp.Format_spec.binary16
    | "binary32" | "single" | "float" -> Ok Fp.Format_spec.binary32
    | "binary64" | "double" -> Ok Fp.Format_spec.binary64
    | s -> Error (`Msg (Printf.sprintf "unknown format %S" s))
  in
  Arg.conv (parse, fun ppf f -> Fp.Format_spec.pp ppf f)

let strategy_conv =
  let parse = function
    | "fast" -> Ok Dragon.Scaling.Fast_estimate
    | "float-log" -> Ok Dragon.Scaling.Float_log
    | "gay" -> Ok Dragon.Scaling.Gay_taylor
    | "iterative" -> Ok Dragon.Scaling.Iterative
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Dragon.Scaling.strategy_name s))

let notation_conv =
  let parse = function
    | "auto" -> Ok Dragon.Render.Auto
    | "sci" | "scientific" -> Ok Dragon.Render.Scientific
    | "pos" | "positional" -> Ok Dragon.Render.Positional
    | s -> Error (`Msg (Printf.sprintf "unknown notation %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf n ->
        Format.pp_print_string ppf
          (match n with
          | Dragon.Render.Auto -> "auto"
          | Dragon.Render.Scientific -> "scientific"
          | Dragon.Render.Positional -> "positional") )

let numbers =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"NUMBER" ~doc:"Decimal numbers to convert.")

let base =
  Arg.(value & opt int 10 & info [ "b"; "base" ] ~docv:"BASE" ~doc:"Output base (2-36).")

let mode =
  Arg.(
    value
    & opt mode_conv Fp.Rounding.To_nearest_even
    & info [ "m"; "mode" ]
        ~doc:
          "Reader rounding mode the output must survive: even, away, \
           nearest-zero, zero, up, down.")

let fmt =
  Arg.(
    value
    & opt format_conv Fp.Format_spec.binary64
    & info [ "f"; "format" ] ~doc:"Target format: binary16, binary32, binary64.")

let strategy =
  Arg.(
    value
    & opt strategy_conv Dragon.Scaling.Fast_estimate
    & info [ "s"; "strategy" ]
        ~doc:"Scaling strategy: fast, float-log, gay, iterative.")

let notation =
  Arg.(
    value
    & opt notation_conv Dragon.Render.Auto
    & info [ "n"; "notation" ] ~doc:"Rendering: auto, scientific, positional.")

let digits =
  Arg.(
    value
    & opt (some int) None
    & info [ "d"; "digits" ] ~docv:"N" ~doc:"Fixed format with $(docv) significant digits.")

let places =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "places" ] ~docv:"N"
        ~doc:"Fixed format with $(docv) digits after the radix point.")

let hex_out =
  Arg.(
    value & flag
    & info [ "x"; "hex" ]
        ~doc:
          "Print the value read, exactly, as a C17 hexadecimal binary64 \
           literal ($(b,--format) binary32 reads 0.1 as 0x1.99999ap-4).  \
           Takes no $(b,--digits), $(b,--places), $(b,--base) or \
           $(b,--notation).")

let stdin_flag =
  Arg.(
    value & flag
    & info [ "stdin" ]
        ~doc:
          "Streaming batch mode: read newline-delimited numbers from \
           standard input, one conversion per line.  Per-line failures \
           are reported on stderr as structured errors without aborting \
           the stream; blank lines are skipped.")

let max_errors =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-errors" ] ~docv:"N"
        ~doc:
          "With $(b,--stdin), stop after $(docv) failed lines (default: \
           never stop; every line is attempted).")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "With $(b,--stdin), print stream statistics on exit to stderr: \
           lines submitted and converted, and per-error-class counts.  \
           With $(b,--connect), also print the client's line: requests, \
           daemon answers, local fallbacks, retries, honored sheds, times \
           the daemon was marked down and sockets opened.")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "With $(b,--stdin), give each line a $(docv)-millisecond \
           wall-clock deadline, enforced cooperatively inside the digit \
           loops; an expired line fails with a structured budget \
           (timeout) error.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Convert through the running bdprintd daemon at $(docv) \
           (HOST:PORT, :PORT, PORT or unix:PATH) instead of in-process, \
           with pooled connections, retries and honored SHED retry-after \
           hints.  When the daemon cannot answer, the conversion falls \
           back to the local in-process pipeline, which prints the same \
           bytes, so the stream still completes; after repeated failed \
           connects, or once the daemon drains, later inputs skip it for \
           a second.  An input that a CONV line cannot carry unchanged \
           (blanks at either end, a line break, a leading TID= token) is \
           converted in-process.  The daemon prints shortest binary64 \
           decimals under nearest-even only, so $(b,--base), $(b,--mode), \
           $(b,--format), $(b,--notation), $(b,--digits), $(b,--places) \
           and $(b,--hex) with a non-default value are refused.  A \
           malformed address or a refused flag is a typed range error \
           (exit 2) reported before any socket is opened.")

let metrics_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "With $(b,--stdin), enable the telemetry registry and write a \
           JSON snapshot of every metric (pipeline counters, stage-timing \
           and digit-count histograms, and with $(b,--connect) the \
           client's counters) to $(docv) on exit, plus a Prometheus text \
           rendering next to it ($(docv) with its .json suffix replaced by \
           .prom).")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable request tracing and write the sampled spans as Chrome \
           trace-event JSON to $(docv) on exit, loadable in \
           chrome://tracing or Perfetto (ui.perfetto.dev).  One request \
           in 64 is traced; BDPRINT_TRACE_SAMPLE=N overrides the \
           interval (1 traces every request).  Each traced request is \
           its own thread track, so its spans — parse, scale, generate, \
           render, and with $(b,--connect) the client-attempt and \
           backoff spans — nest by time containment.")

(* Tracing rides the same at_exit flush discipline as --metrics: even a
   stream cut short by SIGINT still leaves a loadable trace file. *)
let install_trace = function
  | None -> ()
  | Some file ->
    Telemetry.Tracing.set_enabled true;
    Telemetry.Tracing.sample_every_from_env "BDPRINT_TRACE_SAMPLE";
    at_exit (fun () -> Telemetry.Tracing.write_chrome_json file)

(* Vet the fixed-format request before any conversion runs: misuse
   (--digits 0, --places 1000000) must be a clean structured error up
   front, not a per-number failure or an unbounded allocation. *)
let vet_request request =
  let cap = (Robust.Budget.get ()).Robust.Budget.max_output_digits in
  match request with
  | Conversion.Position (Dragon.Fixed_format.Relative d) ->
    if d < 1 then
      Some (Error.range ~what:"--digits" (Printf.sprintf "%d < 1" d))
    else if d > cap then
      Some (Error.budget ~what:"--digits" ~limit:cap ~got:d)
    else None
  | Conversion.Position (Dragon.Fixed_format.Absolute j) ->
    if abs j > cap then
      Some (Error.budget ~what:"--places" ~limit:cap ~got:(abs j))
    else None
  | Conversion.Shortest | Conversion.Hex -> None

let first_set flags =
  List.find_map (fun (set, flag) -> if set then Some flag else None) flags

(* The one request a run makes: shortest, a position or hex, never two.
   --hex prints the value read in C17's own notation, so the flags that
   shape decimal text do not apply to it; --mode and --format do, as
   they choose the value read. *)
let request_of ~base ~notation ~digits ~places ~hex_out =
  match (digits, places) with
  | Some _, Some _ -> Result.Error "use only one of --digits and --places"
  | _ when hex_out -> (
    match
      first_set
        [
          (digits <> None, "--digits");
          (places <> None, "--places");
          (base <> 10, "--base");
          (notation <> Dragon.Render.Auto, "--notation");
        ]
    with
    | Some flag -> Result.Error ("--hex cannot be combined with " ^ flag)
    | None -> Result.Ok Conversion.Hex)
  | Some d, None ->
    Result.Ok (Conversion.Position (Dragon.Fixed_format.Relative d))
  | None, Some p ->
    Result.Ok (Conversion.Position (Dragon.Fixed_format.Absolute (-p)))
  | None, None -> Result.Ok Conversion.Shortest

(* Per-class error accounting for the stream and one-shot inputs; the
   exit code reflects the most severe class seen (docs/ROBUSTNESS.md
   taxonomy): 4 internal, 3 budget (incl. deadline timeouts), 2
   syntax/range, 0 clean. *)
type class_counts = {
  mutable n_syntax : int;
  mutable n_range : int;
  mutable n_budget : int;
  mutable n_internal : int;
}
[@@lint.domain_safe "written and read only by the main domain"]

let new_counts () = { n_syntax = 0; n_range = 0; n_budget = 0; n_internal = 0 }

let count_error c = function
  | Error.Syntax _ -> c.n_syntax <- c.n_syntax + 1
  | Error.Range _ -> c.n_range <- c.n_range + 1
  | Error.Budget _ -> c.n_budget <- c.n_budget + 1
  | Error.Internal _ -> c.n_internal <- c.n_internal + 1

let total_errors c = c.n_syntax + c.n_range + c.n_budget + c.n_internal

let class_exit_code c =
  if c.n_internal > 0 then 4
  else if c.n_budget > 0 then 3
  else if c.n_syntax + c.n_range > 0 then 2
  else 0

(* Stream-level counters, read back by --stats and --metrics. *)
let m_conversions =
  Telemetry.Metrics.counter
    ~help:"Input lines submitted for conversion (all outcomes)."
    "bdprint_conversions_total"

let result_counter r =
  Telemetry.Metrics.counter
    ~labels:[ ("result", r) ]
    ~help:"Converted lines by result."
    "bdprint_conversion_results_total"

let m_ok = result_counter "ok"

let error_counter cls =
  Telemetry.Metrics.counter
    ~labels:[ ("class", cls) ]
    ~help:"Failed lines by structured error class."
    "bdprint_conversion_errors_total"

let m_err_syntax = error_counter "syntax"
let m_err_range = error_counter "range"
let m_err_budget = error_counter "budget"
let m_err_internal = error_counter "internal"

let record_error = function
  | Error.Syntax _ -> Telemetry.Metrics.incr m_err_syntax
  | Error.Range _ -> Telemetry.Metrics.incr m_err_range
  | Error.Budget _ -> Telemetry.Metrics.incr m_err_budget
  | Error.Internal _ -> Telemetry.Metrics.incr m_err_internal

(* The stream's exit path: snapshot the registry once, render --stats
   from it, dump --metrics files, exit with the class code — or with the
   distinct code 5 when the stream was cut short by SIGINT or a closed
   output pipe, so callers can tell "clean but partial" from "complete".
   Metrics flush on the interrupted path too: a cut-short run still
   reports what it converted. *)
let finish_stream ~counts ~show_stats ~metrics_file ~interrupted =
  (try flush stdout
   with Sys_error _ ->
     (* stdout is a broken pipe and its buffer cannot drain; repoint
        fd 1 at /dev/null so the exit-time flush cannot raise *)
     (try
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 null Unix.stdout;
        Unix.close null
      with Unix.Unix_error (_, _, _) -> ()));
  let snap = Telemetry.Snapshot.take () in
  if show_stats then Format.eprintf "%a@.%!" Telemetry.Snapshot.pp_stream snap;
  Option.iter (Telemetry.Snapshot.write_files snap) metrics_file;
  let errors = total_errors counts in
  if errors > 0 then
    Printf.eprintf "error: %d input line(s) failed\n%!" errors;
  if interrupted then begin
    Printf.eprintf
      "error: stream interrupted (signal or closed output); partial results \
       and metrics flushed\n\
       %!";
    exit 5
  end;
  exit (class_exit_code counts)

(* Per-line deadlines: a pre-flight check, then the cooperative checks
   inside the digit loops, as in the service workers. *)
let with_line_deadline deadline_ms convert input =
  match deadline_ms with
  | None -> convert input
  | Some ms ->
    let d = Budget.deadline_after ~ms in
    Budget.set_deadline (Some d);
    Fun.protect
      ~finally:(fun () -> Budget.set_deadline None)
      (fun () ->
        if Budget.expired d then Result.Error (Budget.deadline_error d)
        else convert input)

(* Stream interruption: SIGINT mid-stream (operator ^C) and SIGPIPE
   (downstream consumer closed the pipe) both stop the stream cleanly —
   flush whatever converted, flush --metrics, exit 5 — instead of dying
   with the default signal action and losing the telemetry.  SIGPIPE is
   ignored so broken-pipe writes surface as catchable [Sys_error]. *)
let install_stream_signals () =
  let interrupted = Atomic.make false in
  let note _ = Atomic.set interrupted true in
  (try ignore (Sys.signal Sys.sigint (Sys.Signal_handle note))
   with Invalid_argument _ | Sys_error _ -> ());
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  interrupted

(* The stream's read loop, through the bounded line reader bdprintd
   uses.  [line lineno input] gets each non-blank line, trimmed once,
   and [too_long lineno bytes] each line over the reader's cap, which
   was discarded without being stored.  A final line with no newline
   still counts.  The reader flushes stdout before
   each read(2), the only point where the stream can block on its
   input, so a peer that waits for each answer gets it, while a batch
   run writes in blocks.  The loop ends at end of input, or once
   [stopped ()] holds: it is checked before each line and after a read
   that SIGINT interrupted. *)
let read_stream ~stopped ~line ~too_long =
  let r =
    Net.Line_reader.create ~before_read:(fun () -> flush stdout) Unix.stdin
  in
  let rec loop lineno =
    if not (stopped ()) then
      match Net.Line_reader.read r with
      | Net.Line_reader.Eof -> ()
      | Interrupted -> loop lineno
      | Line s | Last s ->
        let input = String.trim s in
        if input <> "" then line (lineno + 1) input;
        loop (lineno + 1)
      | Too_long { bytes; _ } ->
        too_long (lineno + 1) bytes;
        loop (lineno + 1)
  in
  loop 0

(* The reader's own input-length error, with the length the line reader
   counted. *)
let too_long_error bytes =
  Error.budget ~what:"input length"
    ~limit:(Budget.get ()).Budget.max_input_length ~got:bytes

(* A failed input goes to stderr once everything printed before it has
   left stdout, so [2>&1] keeps input order; a stream names its line.
   True when it is the failure that reaches --max-errors. *)
let report_error ~counts ~max_errors ~aborted ?lineno e =
  count_error counts e;
  record_error e;
  flush stdout;
  (match lineno with
  | Some n -> Printf.eprintf "error: line %d: %s\n%!" n (Error.to_string e)
  | None -> Printf.eprintf "error: %s\n%!" (Error.to_string e));
  match max_errors with
  | Some cap when total_errors counts >= cap && not aborted ->
    Printf.eprintf
      "error: aborting after %d failed line(s) (--max-errors %d)\n%!"
      (total_errors counts) cap;
    true
  | _ -> false

(* A request refused before any conversion (an out-of-domain flag, a
   malformed address): reported like a failed input, exit with its
   class code. *)
let refuse e =
  let counts = new_counts () in
  ignore (report_error ~counts ~max_errors:None ~aborted:false e);
  exit (class_exit_code counts)

let run_stream ~convert ~max_errors ~deadline_ms ~show_stats ~metrics_file =
  let counts = new_counts () in
  let aborted = ref false in
  let interrupted = install_stream_signals () in
  let report lineno = function
    | Ok out ->
      Telemetry.Metrics.incr m_ok;
      print_string out;
      print_char '\n'
    | Error e ->
      if report_error ~counts ~max_errors ~aborted:!aborted ~lineno e then
        aborted := true
  in
  (try
     read_stream
       ~stopped:(fun () -> !aborted || Atomic.get interrupted)
       ~line:(fun lineno input ->
         Telemetry.Metrics.incr m_conversions;
         let tid = Telemetry.Tracing.begin_request () in
         report lineno (with_line_deadline deadline_ms convert input);
         Telemetry.Tracing.end_request tid)
       ~too_long:(fun lineno bytes ->
         Telemetry.Metrics.incr m_conversions;
         report lineno (Error (too_long_error bytes)))
   with Sys_error _ | Unix.Unix_error _ ->
     (* broken stdout pipe (SIGPIPE ignored above) or stdin error *)
     Atomic.set interrupted true);
  finish_stream ~counts ~show_stats ~metrics_file
    ~interrupted:(Atomic.get interrupted)

(* Route conversions through the resilient daemon client.  The address
   is vetted before any socket is opened: a malformed address is a
   typed range error with exit code 2, matching the streaming exit-code
   taxonomy.  The locally-built pipeline rides along as the client's
   final fallback tier.  The client-stats exit line is opt-in, so
   plumbing that parses stderr never meets an unexpected trailer. *)
let connect_client ~local ~show_stats spec =
  let addr =
    match Net.Addr.parse spec with
    | Result.Ok addr -> addr
    | Result.Error e -> refuse e
  in
  let client = Client.create ~local addr in
  if show_stats then
    at_exit (fun () ->
        let s = Client.stats client in
        Printf.eprintf
          "client: requests=%d remote-ok=%d local-fallbacks=%d \
           errors=%d retries=%d sheds-honored=%d ejections=%d \
           reconnects=%d\n\
           %!"
          s.Client.requests s.Client.remote_ok s.Client.local_fallbacks
          s.Client.typed_errors s.Client.retries s.Client.sheds_honored
          s.Client.ejections s.Client.reconnects);
  client

(* A CONV request carries its input alone, and bdprintd answers it with
   the default conversion: shortest binary64 decimal under nearest-even.
   So --connect refuses any other conversion setting, naming the first
   one set.  --strategy stays allowed: every strategy prints the same
   digits. *)
let connect_conflict ~base ~mode ~fmt ~notation ~digits ~places ~hex_out =
  first_set
    [
      (base <> 10, "--base");
      (mode <> Fp.Rounding.To_nearest_even, "--mode");
      (fmt <> Fp.Format_spec.binary64, "--format");
      (notation <> Dragon.Render.Auto, "--notation");
      (digits <> None, "--digits");
      (places <> None, "--places");
      (hex_out, "--hex");
    ]

let run base mode fmt strategy notation digits places hex_out use_stdin
    max_errors show_stats deadline_ms metrics_file connect trace numbers =
  if base < 2 || base > 36 then
    refuse (Error.range ~what:"base" (Printf.sprintf "%d not in 2..36" base))
  else if (match deadline_ms with Some ms -> ms < 0 | None -> false) then
    refuse (Error.range ~what:"--deadline-ms" "must be >= 0")
  else if (not use_stdin) && deadline_ms <> None then
    `Error (false, "--deadline-ms requires --stdin")
  else if (not use_stdin) && show_stats && connect = None then
    `Error (false, "--stats requires --stdin or --connect")
  else if (not use_stdin) && metrics_file <> None then
    `Error (false, "--metrics requires --stdin")
  else begin
    (* Flip the registry on before the first conversion. *)
    if show_stats || metrics_file <> None then Telemetry.set_enabled true;
    install_trace trace;
    match request_of ~base ~notation ~digits ~places ~hex_out with
    | Result.Error e -> `Error (false, e)
    | Result.Ok request -> (
      match vet_request request with
      | Some e -> refuse e
      | None -> (
        (* applied once: a line pays no box for the settings *)
        let convert =
          Conversion.convert ~base ~mode ~format:fmt ~strategy ~notation
            ~request
        in
        (* --connect swaps the conversion function for the resilient
           client (the daemon first, this pipeline as local fallback)
           and moves deadline enforcement into the client, where it also
           bounds socket timeouts, retries and shed waits *)
        let convert, deadline_ms =
          match connect with
          | None -> (convert, deadline_ms)
          | Some spec ->
            (match
               connect_conflict ~base ~mode ~fmt ~notation ~digits ~places
                 ~hex_out
             with
            | Some flag ->
              refuse
                (Error.range ~what:"--connect"
                   (flag
                  ^ " is not served: bdprintd prints shortest binary64 \
                     decimals under nearest-even"))
            | None -> ());
            let client = connect_client ~local:convert ~show_stats spec in
            let remote input =
              Result.map
                (fun o -> o.Client.output)
                (Client.convert client ?deadline_ms input)
            in
            (remote, None)
        in
        match (use_stdin, numbers) with
        | true, _ :: _ ->
          `Error (false, "--stdin and positional NUMBER arguments conflict")
        | true, [] ->
          run_stream ~convert ~max_errors ~deadline_ms ~show_stats
            ~metrics_file
        | false, [] -> `Error (true, "missing NUMBER argument (or --stdin)")
        | false, numbers ->
          let counts = new_counts () in
          List.iter
            (fun input ->
              match convert input with
              | Ok out ->
                print_string out;
                print_char '\n'
              | Error e ->
                ignore (report_error ~counts ~max_errors:None ~aborted:false e))
            numbers;
          exit (class_exit_code counts)))
  end

let cmd =
  let doc = "print floating-point numbers quickly and accurately" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Converts decimal inputs into a binary floating-point format with \
         correct rounding, then prints them back using the Burger-Dybvig \
         (PLDI 1996) free-format or fixed-format algorithm.  Free format \
         emits the shortest string that reads back to the same value; fixed \
         format emits correctly rounded digits with '#' marking positions \
         beyond the value's precision.";
      `P
        "Failures are structured: syntax errors (bad input text), range \
         errors (bad request parameters), budget errors (requests that \
         would exceed the resource caps, e.g. million-digit output) and \
         internal errors.  Inputs with astronomical exponents like \
         1e999999999 convert to the correctly rounded extreme (0 or inf) \
         in constant time.";
      `P
        "The exit code reflects the most severe failure class seen, \
         one-shot or with --stdin, out-of-domain flags included: 0 clean, \
         2 syntax/range, 3 budget (including --deadline-ms timeouts), 4 \
         internal, 5 interrupted stream (SIGINT or closed output pipe; \
         partial results and --metrics flush before exiting).  Command-line \
         parse and usage errors exit 124.  With --stdin, output keeps \
         input order, each failed line's error follows the output of the \
         lines before it, and --deadline-ms gives every line its own \
         wall-clock deadline.";
      `S Manpage.s_examples;
      `Pre
        "  bdprint 0.1 1e23\n\
        \  bdprint --digits 10 --format binary32 0.333333333\n\
        \  bdprint --base 16 --notation scientific 255.9375\n\
        \  bdprint --places 20 100\n\
        \  printf '0.1\\\\n1e23\\\\nbogus\\\\n' | bdprint --stdin --max-errors 5\n\
        \  bdprint --stdin --stats < corpus.txt\n\
        \  bdprint --stdin --metrics metrics.json < corpus.txt\n\
        \  bdprint --stdin --deadline-ms 50 < corpus.txt\n\
        \  BDPRINT_TRACE_SAMPLE=1 bdprint --stdin --trace trace.json < corpus.txt";
    ]
  in
  Cmd.v
    (Cmd.info "bdprint" ~version:"1.0.0" ~doc ~man)
    Term.(
      ret
        (const run $ base $ mode $ fmt $ strategy $ notation $ digits $ places
       $ hex_out $ stdin_flag $ max_errors $ stats_flag $ deadline_ms
       $ metrics_file $ connect_arg $ trace_file $ numbers))

let () = exit (Cmd.eval cmd)
