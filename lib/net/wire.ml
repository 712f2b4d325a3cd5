type request =
  | Conv of { input : string; tid : int }
  | Deadline of int
  | Ping
  | Stats
  | Metrics
  | Trace_dump
  | Quit

type reply =
  | Converted of string
  | Failed of { cls : string; detail : string }
  | Shed of string
  | Pong
  | Payload of { verb : string; body : string }
  | Bye

let max_deadline_ms = 3_600_000

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* One-line sanitisation for reply fields that originate in error
   messages: the framing is newline-based, so embedded line breaks
   would desynchronise the stream. *)
let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let split_verb line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

(* The optional TID token carries a request-scoped trace id (see
   Telemetry.Tracing) so daemon-side spans land on the same trace track
   as the client spans that caused them.  Tracing is off by default and
   clients only emit the token for requests they are actually tracing,
   so a pre-TID server never sees it unless tracing is deliberately
   enabled against it. *)
let tid_prefix = "TID="

let split_tid rest =
  let rest = String.trim rest in
  let lp = String.length tid_prefix in
  if String.length rest > lp && String.sub rest 0 lp = tid_prefix then begin
    let tok, after = split_verb rest in
    match int_of_string_opt (String.sub tok lp (String.length tok - lp)) with
    | Some tid when tid >= 1 -> Ok (tid, String.trim after)
    | _ -> Error "bad-tid"
  end
  else Ok (0, rest)

let parse_request line =
  let line = strip_cr line in
  let verb, rest = split_verb line in
  match verb with
  | "CONV" -> (
    match split_tid rest with
    | Error e -> Error e
    | Ok (tid, input) ->
      if input = "" then Error "empty-input" else Ok (Conv { input; tid }))
  | "DEADLINE" -> (
    match int_of_string_opt (String.trim rest) with
    | Some ms when ms >= 0 && ms <= max_deadline_ms -> Ok (Deadline ms)
    | Some _ -> Error (Printf.sprintf "bad-deadline (0..%d)" max_deadline_ms)
    | None -> Error "bad-deadline")
  | "PING" when rest = "" -> Ok Ping
  | "STATS" when rest = "" -> Ok Stats
  | "METRICS" when rest = "" -> Ok Metrics
  | "TRACE" when rest = "" -> Ok Trace_dump
  | "QUIT" when rest = "" -> Ok Quit
  | "" -> Error "empty-frame"
  | v -> Error (Printf.sprintf "unknown-verb %s" (one_line v))

let render_reply = function
  | Converted out -> "OK " ^ one_line out ^ "\n"
  | Failed { cls; detail } ->
    Printf.sprintf "ERR %s %s\n" (one_line cls) (one_line detail)
  | Shed reason -> "SHED " ^ one_line reason ^ "\n"
  | Pong -> "PONG\n"
  | Payload { verb; body } ->
    Printf.sprintf "%s %d\n%s\n" verb (String.length body) body
  | Bye -> "BYE\n"

(* Request-side rendering for the client and the tests.  The TID token
   goes first so a server can route on it before looking at the input. *)
let render_conv ?(tid = 0) input =
  if tid = 0 then "CONV " ^ one_line input ^ "\n"
  else Printf.sprintf "CONV %s%d %s\n" tid_prefix tid (one_line input)

(* [parse_request] trims the payload, reads a leading [TID=] token and
   refuses an empty one, and [render_conv] flattens line breaks, so
   only some inputs come back as themselves: ask the grammar. *)
let conv_reads_back ?(tid = 0) input =
  let frame = render_conv ~tid input in
  match parse_request (String.sub frame 0 (String.length frame - 1)) with
  | Ok (Conv c) -> String.equal c.input input
  | Ok _ | Error _ -> false

let payload_length line =
  let line = strip_cr line in
  match split_verb line with
  | ("STATS" | "METRICS" | "TRACE"), rest -> (
    match int_of_string_opt (String.trim rest) with
    | Some n when n >= 0 -> Some n
    | _ -> None)
  | _ -> None

let parse_reply_line line =
  let line = strip_cr line in
  let verb, rest = split_verb line in
  match verb with
  | "OK" -> Ok (Converted rest)
  | "ERR" ->
    let cls, detail = split_verb rest in
    if cls = "" then Error "ERR without a class"
    else Ok (Failed { cls; detail })
  | "SHED" ->
    if rest = "" then Error "SHED without a reason" else Ok (Shed rest)
  | "PONG" -> Ok Pong
  | "BYE" -> Ok Bye
  | "STATS" | "METRICS" | "TRACE" -> (
    match payload_length line with
    | Some _ -> Ok (Payload { verb; body = "" })
    | None -> Error ("malformed payload header: " ^ line))
  | v -> Error ("unknown reply tag " ^ v)
