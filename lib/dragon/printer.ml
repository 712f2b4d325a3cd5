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

let print_value_exn ?(base = 10) ?mode ?strategy ?tie ?notation fmt value =
  check_base base;
  match value with
  | Value.Zero neg -> Render.zero ~neg ()
  | Value.Inf neg -> Render.infinity ~neg ()
  | Value.Nan -> Render.nan
  | Value.Finite v ->
    let result = Free_format.convert ~base ?mode ?strategy ?tie fmt v in
    let t0 = Telemetry.Trace.start () in
    let s = Render.free ?notation ~neg:v.neg ~base result in
    Telemetry.Trace.finish Telemetry.Trace.Render t0;
    s
[@@lint.can_raise
  Robust.Error.E
  (* the [_exn] suffix is the contract: budget/range failures raise;
     [print_value] is the total variant *)]

let print_value ?base ?mode ?strategy ?tie ?notation fmt value =
  Robust.Error.catch (fun () ->
      print_value_exn ?base ?mode ?strategy ?tie ?notation fmt value)

let print ?base ?mode ?strategy ?tie ?notation x =
  print_value_exn ?base ?mode ?strategy ?tie ?notation Format_spec.binary64
    (Fp.Ieee.decompose x)
  [@@lint.can_raise Robust.Error.E]
  (* documented raising convenience; [print_value] is the total variant *)

let print_fixed ?(base = 10) ?mode ?tie ?notation request x =
  (* Arguments first, so zeros, infinities and NaNs get the same range
     error as finite values. *)
  Fixed_format.check_request ~base request;
  match Fp.Ieee.decompose x with
  | Value.Zero neg -> Render.zero ~neg ()
  | Value.Inf neg -> Render.infinity ~neg ()
  | Value.Nan -> Render.nan
  | Value.Finite v ->
    let result =
      (Fixed_format.convert_exn ~base ?mode ?tie Format_spec.binary64 v request)
      [@lint.can_raise Robust.Error.E]
      (* documented raising convenience; stream drivers use the catch wrapper *)
    in
    Render.fixed ?notation ~neg:v.neg ~base result
[@@lint.can_raise
  Robust.Error.E
  (* documented raising convenience; stream drivers use the catch wrapper *)]

let shortest x = print x
  [@@lint.can_raise Robust.Error.E] (* forwards [print]'s contract *)

let print_hex x =
  match Fp.Ieee.decompose x with
  | Value.Zero neg -> if neg then "-0x0p+0" else "0x0p+0"
  | Value.Inf neg -> Render.infinity ~neg ()
  | Value.Nan -> Render.nan
  | Value.Finite v ->
    (* canonical binary64: p-exponent e+52, integer part the hidden bit,
       13 hex digits of fraction with trailing zeros stripped *)
    let f =
      (Bignum.Nat.to_int_exn v.Value.f)
      [@lint.can_raise Invalid_argument] (* binary64 mantissa < 2^53 always fits *)
    in
    let int_part = f lsr 52 in
    let frac = f land ((1 lsl 52) - 1) in
    let buf = Buffer.create 24 in
    if v.Value.neg then Buffer.add_char buf '-';
    Buffer.add_string buf (Printf.sprintf "0x%d" int_part);
    if frac <> 0 then begin
      Buffer.add_char buf '.';
      let nibbles = ref [] in
      let rest = ref frac in
      for _ = 1 to 13 do
        nibbles := !rest land 0xF :: !nibbles;
        rest := !rest lsr 4
      done;
      let digits = Array.of_list !nibbles in
      let last = ref 12 in
      while digits.(!last) = 0 do
        decr last
      done;
      for i = 0 to !last do
        Buffer.add_char buf "0123456789abcdef".[digits.(i)]
      done
    end;
    Buffer.add_string buf (Printf.sprintf "p%+d" (v.Value.e + 52));
    Buffer.contents buf
[@@lint.can_raise
  Invalid_argument
  (* [decompose] validates its bit pattern; any float is in range, so
     this never fires from the public signature *)]

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
