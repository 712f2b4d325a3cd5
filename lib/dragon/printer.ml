module Value = Fp.Value
module Format_spec = Fp.Format_spec

let check_base base =
  if base < 2 || base > 36 then
    Robust.Error.raise_
      (Robust.Error.range ~what:"base" (Printf.sprintf "%d not in 2..36" base))

(* The free-format pipeline behind every entry point below dispatches
   through the table-driven fast path first (see {!Free_format} and
   {!Fastpath}); these forwarders give printer-level callers (bench,
   the daemon, tests) one place to steer and observe that dispatch
   without reaching into the fastpath library. *)
let set_fastpath_enabled = Fastpath.set_enabled
let fastpath_enabled = Fastpath.enabled

let fastpath_stats () = (Fastpath.hit_count (), Fastpath.fallback_count ())

let fixed_fastpath_stats () =
  (Fastpath.fixed_hit_count (), Fastpath.fixed_fallback_count ())

(* The table tier's shortest digits of f·2^e laid out, or [""] when
   the verdict is uncertain: the kernel writes its digits into the
   lent buffer and the layout reads them from there.  (A budget error
   from the kernel gives the buffer back itself.) *)
let free_hit ~mode ~notation fmt ~neg ~f ~e =
  let buf = Fastpath.lend Fastpath.max_digits in
  let r = Free_format.shortest_tier buf ~mode fmt ~f ~e in
  if r < 0 then begin
    Fastpath.give_back buf;
    ""
  end
  else begin
    let n = Fastpath.digit_count r in
    let t0 = Telemetry.Tracing.start () in
    let s = Render.layout ~notation ~neg ~k:(Fastpath.point r) ~base:10 buf n in
    Fastpath.give_back buf;
    Telemetry.Tracing.finish Telemetry.Tracing.Render t0;
    Robust.Budget.observe_output_digits n;
    s
  end

(* The same for the position rule, whose output spans [total]
   positions: digits, significant zeros, then [#] marks. *)
let fixed_hit ~mode ~notation fmt ~neg ~f ~e ~relative ~pos =
  let buf = Fastpath.lend Fastpath.max_digits in
  let r = Free_format.fixed_tier buf ~mode fmt ~f ~e ~relative ~pos in
  if r < 0 then begin
    Fastpath.give_back buf;
    ""
  end
  else begin
    let n = Fastpath.digit_count r and k = Fastpath.point r in
    let total = if relative then pos else k - pos in
    let zeros = Fastpath.zero_count r in
    let src = Render.marks buf ~digits:n ~zeros ~total in
    let s = Render.layout ~notation ~neg ~k ~base:10 src total in
    Fastpath.give_back buf;
    Robust.Budget.observe_output_digits n;
    s
  end

(* The exact tier's free format of a decomposed value, after the table
   tier has declined it or been passed over. *)
let exact_value ~base ~mode ~strategy ~tie ~notation fmt value =
  check_base base;
  match value with
  | Value.Zero neg -> Render.zero ~neg ()
  | Value.Inf neg -> Render.infinity ~neg ()
  | Value.Nan -> Render.nan
  | Value.Finite v ->
    let result = Free_format.exact ~base ~mode ~strategy ~tie fmt v in
    let t0 = Telemetry.Tracing.start () in
    let s = Render.free ~notation ~neg:v.neg ~base result in
    Telemetry.Tracing.finish Telemetry.Tracing.Render t0;
    s
[@@lint.can_raise Robust.Error.E]

(* The shortest rule certifies the default estimator's fixup only. *)
let print_value_exn ?(base = 10) ?(mode = Fp.Rounding.To_nearest_even)
    ?(strategy = Scaling.Fast_estimate) ?(tie = Generate.Closer_up)
    ?(notation = Render.Auto) fmt value =
  let s =
    match (strategy, value) with
    | Scaling.Fast_estimate, Value.Finite v
      when Free_format.tier_open ~base ~mode fmt ->
      let f = Free_format.tier_mantissa v in
      if f = 0 then "" else free_hit ~mode ~notation fmt ~neg:v.neg ~f ~e:v.e
    | _ -> ""
  in
  if String.length s > 0 then s
  else exact_value ~base ~mode ~strategy ~tie ~notation fmt value
[@@lint.can_raise
  Robust.Error.E
  (* the [_exn] suffix is the contract: budget/range failures raise;
     [print_value] is the total variant *)]

let print_value ?base ?mode ?strategy ?tie ?notation fmt value =
  Robust.Error.catch (fun () ->
      print_value_exn ?base ?mode ?strategy ?tie ?notation fmt value)

(* A binary64 datum's fields, read from its bits: [frac_field] the
   52-bit fraction, [exp_field] the biased exponent.  [fields] drops
   the sign bit; [Float.sign_bit] reads it. *)
let frac_mask = (1 lsl 52) - 1
let[@inline] fields x = Int64.to_int (Int64.bits_of_float x)
let[@inline] frac_field b = b land frac_mask
let[@inline] exp_field b = (b lsr 52) land 0x7ff

(* Infinities, NaNs and both zeros. *)
let[@inline] special b = exp_field b = 0x7ff || b = 0

(* The table tier's [f] and [e] for a finite non-zero datum: the
   hidden bit joins the fraction except in denormals, whose exponent is
   that of the smallest normal binade. *)
let[@inline] mantissa b =
  if exp_field b = 0 then frac_field b else frac_field b lor (1 lsl 52)

let[@inline] exponent b = max (exp_field b) 1 - 1075

(* The kernel raises only the domain's expired deadline, which the
   exact tier after a decline raises again. *)
let print_table ~mode ~notation x =
  let b = fields x in
  if special b || not (Free_format.tier_open ~base:10 ~mode Format_spec.binary64)
  then ""
  else
    match
      free_hit ~mode ~notation Format_spec.binary64 ~neg:(Float.sign_bit x)
        ~f:(mantissa b) ~e:(exponent b)
    with
    | s -> s
    | exception Robust.Error.E _ -> ""

let print ?(base = 10) ?(mode = Fp.Rounding.To_nearest_even)
    ?(strategy = Scaling.Fast_estimate) ?(tie = Generate.Closer_up)
    ?(notation = Render.Auto) x =
  let s =
    match strategy with
    | Scaling.Fast_estimate when base = 10 -> print_table ~mode ~notation x
    | _ -> ""
  in
  if String.length s > 0 then s
  else
    exact_value ~base ~mode ~strategy ~tie ~notation Format_spec.binary64
      (Fp.Ieee.decompose x)
[@@lint.can_raise Robust.Error.E]
(* documented raising convenience; [print_value] is the total variant *)

let print_fixed ?(base = 10) ?(mode = Fp.Rounding.To_nearest_even)
    ?(tie = Generate.Closer_up) ?(notation = Render.Auto) request x =
  (* Arguments first, so zeros, infinities and NaNs get the same range
     error as finite values. *)
  Fixed_format.check_request ~base request;
  let fmt = Format_spec.binary64 in
  let b = fields x in
  let tier = (not (special b)) && Free_format.tier_open ~base ~mode fmt in
  let s =
    match request with
    | Fixed_format.Relative i when tier ->
      (* [Fixed_format.vet] of a relative request *)
      Robust.Budget.check_output_digits i;
      fixed_hit ~mode ~notation fmt ~neg:(Float.sign_bit x) ~f:(mantissa b)
        ~e:(exponent b) ~relative:true ~pos:i
    | _ -> ""
  in
  if String.length s > 0 then s
  else
    match Fp.Ieee.decompose x with
    | Value.Zero neg -> Render.zero ~neg ()
    | Value.Inf neg -> Render.infinity ~neg ()
    | Value.Nan -> Render.nan
    | Value.Finite v -> (
      match Fixed_format.vet ~base fmt v request with
      | Some t -> Render.fixed ~notation ~neg:v.neg ~base t
      | None ->
        let s =
          match request with
          | Fixed_format.Absolute j when tier ->
            fixed_hit ~mode ~notation fmt ~neg:v.neg ~f:(mantissa b)
              ~e:(exponent b) ~relative:false ~pos:j
          | _ -> ""
        in
        if String.length s > 0 then s
        else
          Render.fixed ~notation ~neg:v.neg ~base
            (Fixed_format.exact ~base ~mode ~tie fmt v request))
[@@lint.can_raise
  Robust.Error.E
  (* documented raising convenience; stream drivers use the catch wrapper *)]

let shortest x = print x
  [@@lint.can_raise Robust.Error.E] (* forwards [print]'s contract *)

let hex_digits = "0123456789abcdef"

(* The decimal digits of [0 <= q < 10000] into [dst], ending at [last]. *)
let rec put_decimal dst last q =
  Bytes.unsafe_set dst last (Char.unsafe_chr (48 + (q mod 10)));
  if q >= 10 then put_decimal dst (last - 1) (q / 10)

(* C17 [%a]-style text from the bits: sign, "0x", the leading digit
   (the hidden bit, 0 for denormals and zero), a point and the 52-bit
   fraction as 13 nibbles with trailing zeros dropped, and the binary
   exponent of the leading digit ([p-1022] for denormals, [p+0] for
   zero), in one [Bytes] of the exact length. *)
let print_hex x =
  let b = fields x in
  let frac = frac_field b and ef = exp_field b in
  if ef = 0x7ff then
    if frac = 0 then Render.infinity ~neg:(Float.sign_bit x) () else Render.nan
  else begin
    let nibbles = ref 0 in
    if frac <> 0 then begin
      nibbles := 13;
      while (frac lsr (4 * (13 - !nibbles))) land 0xf = 0 do
        decr nibbles
      done
    end;
    let nibbles = !nibbles in
    let p = if ef = 0 then if frac = 0 then 0 else -1022 else ef - 1023 in
    let q = abs p in
    let sign = if Float.sign_bit x then 1 else 0
    and point = if nibbles = 0 then 0 else 1
    and width =
      if q >= 1000 then 4 else if q >= 100 then 3 else if q >= 10 then 2 else 1
    in
    let at = sign + 3 + point + nibbles in
    let dst = Bytes.create (at + 2 + width) in
    if sign = 1 then Bytes.unsafe_set dst 0 '-';
    Bytes.unsafe_set dst sign '0';
    Bytes.unsafe_set dst (sign + 1) 'x';
    Bytes.unsafe_set dst (sign + 2) (if ef = 0 then '0' else '1');
    if point = 1 then Bytes.unsafe_set dst (sign + 3) '.';
    for i = 0 to nibbles - 1 do
      Bytes.unsafe_set dst (sign + 4 + i)
        (String.unsafe_get hex_digits ((frac lsr (4 * (12 - i))) land 0xf))
    done;
    Bytes.unsafe_set dst at 'p';
    Bytes.unsafe_set dst (at + 1) (if p < 0 then '-' else '+');
    put_decimal dst (at + 1 + width) q;
    Bytes.unsafe_to_string dst
  end

let print_exact ?(base = 10) ?notation x =
  match Fp.Ieee.decompose x with
  | Value.Zero neg -> Render.zero ~neg ()
  | Value.Inf neg -> Render.infinity ~neg ()
  | Value.Nan -> Render.nan
  | Value.Finite v ->
    let digits, k =
      Oracle.Exact_decimal.exact_digits ~base Format_spec.binary64
        { v with neg = false }
    in
    Render.free ?notation ~neg:v.neg ~base { Free_format.digits; k }
[@@lint.can_raise
  Invalid_argument
  (* documented raising convenience: base validation and the exact
     oracle raise on misuse; daemon paths pre-validate the base *)]
