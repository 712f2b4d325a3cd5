type line =
  | Line of string
  | Last of string
  | Too_long of { bytes : int; terminated : bool }
  | Interrupted
  | Eof

let size = 8192

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
      (** the unread bytes are [buf.[pos .. size - 1]]: each [read(2)]
          moves what it got to the end of [buf], so one index says where
          they start *)
  max_len : int;
  before_read : unit -> unit;
  head : Buffer.t;  (** the start of a line that spans reads *)
  mutable dropped : int;
      (** bytes of an over-long line discarded so far; 0 while the
          current line is kept, since an over-long line has at least one *)
}
[@@lint.domain_safe "one reader per stream or connection thread, never shared"]

(* Room for a request verb and spaces around an input of the maximum
   length. *)
let slack = 64

let create ?(before_read = ignore) ?max_len fd =
  let max_len =
    match max_len with
    | Some n -> n
    | None ->
      let limit = (Robust.Budget.get ()).Robust.Budget.max_input_length in
      if limit > max_int - slack then max_int else limit + slack
  in
  {
    fd;
    buf = Bytes.create size;
    pos = size;
    max_len;
    before_read;
    head = Buffer.create 128;
    dropped = 0;
  }

(* The first '\n' in [buf.[i ..]], or -1. *)
let rec newline buf i =
  if i >= size then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1)

let take_head r =
  let s = Buffer.contents r.head in
  Buffer.clear r.head;
  s

(* The line that ends at the '\n' in [buf.[i]].  While [dropped] > 0
   the head is empty, so [dropped + held] is what the line had before. *)
let complete r i =
  let start = r.pos and n = i - r.pos and held = Buffer.length r.head in
  r.pos <- i + 1;
  if r.dropped > 0 || held + n > r.max_len then begin
    let bytes = r.dropped + held + n in
    r.dropped <- 0;
    Buffer.clear r.head;
    Too_long { bytes; terminated = true }
  end
  else if held = 0 then Line (Bytes.sub_string r.buf start n)
  else begin
    Buffer.add_subbytes r.head r.buf start n;
    Line (take_head r)
  end

(* No '\n' left in [buf]: keep the rest of the line, or only count it
   once the line is over the cap. *)
let hold r =
  let n = size - r.pos and held = Buffer.length r.head in
  if r.dropped > 0 || held + n > r.max_len then begin
    r.dropped <- r.dropped + held + n;
    Buffer.clear r.head
  end
  else Buffer.add_subbytes r.head r.buf r.pos n;
  r.pos <- size

let finish r =
  let bytes = r.dropped in
  if bytes > 0 then begin
    r.dropped <- 0;
    Too_long { bytes; terminated = false }
  end
  else if Buffer.length r.head > 0 then Last (take_head r)
  else Eof

let rec read r =
  let i = newline r.buf r.pos in
  if i >= 0 then complete r i
  else begin
    hold r;
    r.before_read ();
    match Unix.read r.fd r.buf 0 size with
    | 0 -> finish r
    | n ->
      if n < size then Bytes.blit r.buf 0 r.buf (size - n) n;
      r.pos <- size - n;
      read r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Interrupted
  end

let rec write fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write fd s (off + n) (len - n)
  end
