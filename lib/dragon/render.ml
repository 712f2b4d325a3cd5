type notation = Auto | Scientific | Positional

let digits36 = "0123456789abcdefghijklmnopqrstuvwxyz"

let digit_char d =
  if d < 0 || d > 35 then invalid_arg "Render.digit_char";
  String.unsafe_get digits36 d

(* Positional layout is pleasant only for moderate scale factors; outside
   this window fall back to scientific (the bounds echo what typical
   runtime systems, including Chez Scheme, choose). *)
let use_positional k n = k > -6 && k - n <= 21 && k <= 21

(* 'e' is a digit from base 15 on; '^' is never a digit. *)
let exponent_marker base = if base <= 14 then 'e' else '^'

(* The length of [string_of_int x]. *)
let rec int_width w x =
  if x > -10 && x < 10 then w + 1 else int_width (w + 1) (x / 10)

(* [string_of_int x] into [dst], ending just before [stop]. *)
let rec put_int dst stop x =
  Bytes.unsafe_set dst (stop - 1) (Char.unsafe_chr (48 + abs (x mod 10)));
  if x / 10 <> 0 then put_int dst (stop - 1) (x / 10)
  else if x < 0 then Bytes.unsafe_set dst (stop - 2) '-'

(* The whole text is sized before it is written: sign, then either
   "0." and leading zeros, the digits with the radix point among them,
   or the digits, padding zeros and ".0" (positional), or else a
   one-digit mantissa, the rest after a point, the marker and the
   exponent (scientific).  One [Bytes] of that length, filled once. *)
let layout ~notation ~neg ~k ~base src n =
  let sign = if neg then 1 else 0 in
  let positional =
    match notation with
    | Positional -> true
    | Scientific -> false
    | Auto -> use_positional k n
  in
  let dst =
    if positional then
      if k <= 0 then begin
        let dst = Bytes.create (sign + 2 - k + n) in
        (* bounds-checked: a negative [n] can leave less room *)
        Bytes.set dst sign '0';
        Bytes.set dst (sign + 1) '.';
        Bytes.fill dst (sign + 2) (-k) '0';
        Bytes.blit src 0 dst (sign + 2 - k) n;
        dst
      end
      else if k < n then begin
        let dst = Bytes.create (sign + n + 1) in
        Bytes.blit src 0 dst sign k;
        Bytes.unsafe_set dst (sign + k) '.';
        Bytes.blit src k dst (sign + k + 1) (n - k);
        dst
      end
      else begin
        (* pad up to the radix point when all digits sit above it *)
        let dst = Bytes.create (sign + k + 2) in
        Bytes.blit src 0 dst sign n;
        Bytes.fill dst (sign + n) (k - n) '0';
        Bytes.unsafe_set dst (sign + k) '.';
        Bytes.unsafe_set dst (sign + k + 1) '0';
        dst
      end
    else begin
      let x = k - 1 in
      let mantissa = if n <= 1 then 1 else n + 1 in
      let len = sign + mantissa + 1 + int_width (if x < 0 then 1 else 0) x in
      let dst = Bytes.create len in
      if n = 0 then Bytes.unsafe_set dst sign '0'
      else begin
        (* [min n 1]: a negative [n] fails here, like a long one below *)
        Bytes.blit src 0 dst sign (min n 1);
        if n > 1 then begin
          Bytes.unsafe_set dst (sign + 1) '.';
          Bytes.blit src 1 dst (sign + 2) (n - 1)
        end
      end;
      Bytes.unsafe_set dst (sign + mantissa) (exponent_marker base);
      put_int dst len x;
      dst
    end
  in
  if neg then Bytes.unsafe_set dst 0 '-';
  Bytes.unsafe_to_string dst

let marks src ~digits ~zeros ~total =
  let dst =
    if total <= Bytes.length src then src
    else begin
      let b = Bytes.create total in
      Bytes.blit src 0 b 0 digits;
      b
    end
  in
  Bytes.fill dst digits zeros '0';
  Bytes.fill dst (digits + zeros) (total - digits - zeros) '#';
  dst

(* The characters of [a] laid out from a lent buffer, which goes back
   whatever happens. *)
let layout_array ~notation ~neg ~k ~base char_of a =
  let n = Array.length a in
  let src = Fastpath.lend n in
  match
    for i = 0 to n - 1 do
      Bytes.unsafe_set src i (char_of (Array.unsafe_get a i))
    done;
    layout ~notation ~neg ~k ~base src n
  with
  | s ->
    Fastpath.give_back src;
    s
  | exception ex ->
    let bt = Printexc.get_raw_backtrace () in
    Fastpath.give_back src;
    Printexc.raise_with_backtrace ex bt

(* A digit outside 0..35 fails the table read. *)
let free ?(notation = Auto) ?(neg = false) ~base (t : Free_format.t) =
  layout_array ~notation ~neg ~k:t.k ~base (fun d -> digits36.[d]) t.digits

let fixed ?(notation = Auto) ?(neg = false) ~base (t : Fixed_format.t) =
  layout_array ~notation ~neg ~k:t.k ~base
    (function Fixed_format.Digit d -> digits36.[d] | Fixed_format.Hash -> '#')
    t.digits

let zero ?(neg = false) () = if neg then "-0" else "0"
let infinity ?(neg = false) () = if neg then "-inf" else "inf"
let nan = "nan"
