module Nat = Bignum.Nat
module Bigint = Bignum.Bigint
module Ratio = Bignum.Ratio

type t = { digits : int array; k : int }

module Tracing = Telemetry.Tracing

(* The table tier's one gate, shared by free and fixed format: a
   conversion qualifies for the Q4.112 kernels (see {!Fastpath}) when
   they can certify it — decimal output, a binary format with a
   mantissa in 53 bits, a to-nearest rounding mode, an exponent inside
   the power-of-ten table (the kernel checks that).  The tie strategy
   does not gate dispatch: exact ties are never certifiable, so every
   input whose output could depend on [tie] falls back to the exact
   kernels.  The tier stands aside while faults are armed (it has no
   bignum trip sites to mirror) and under force-pure (it is not the
   differential anchor).  Bignum-bit budgets are deliberately not
   consulted on this path — it allocates no bignum at all — while the
   kernel checks the deadline once per attempt and the output-digit cap
   at every digit. *)
let tier_open ~base ~mode (fmt : Fp.Format_spec.t) =
  base = 10 && fmt.b = 2
  && Fastpath.enabled ()
  && (not (Generate.force_pure ()))
  && (not (Robust.Faults.any_armed ()))
  && Fp.Rounding.is_nearest mode

let tier_mantissa (v : Fp.Value.finite) =
  let f = Nat.to_int_or ~default:0 v.f in
  if f < 1 lsl 53 then f else 0

(* [Rounding.boundary_ok]'s high flag, without the tuple. *)
let high_ok mode f =
  match mode with
  | Fp.Rounding.To_nearest_even -> f land 1 = 0
  | Fp.Rounding.To_nearest_away -> false
  | _ -> true (* To_nearest_toward_zero; is_nearest already held *)

(* [Gaps.gap_low_is_narrow] in machine integers: the low gap is halved
   iff f sits on the normalization boundary b^(p-1), which for b = 2 and
   f < 2^53 can only happen when p <= 54. *)
let narrow (fmt : Fp.Format_spec.t) ~f ~e =
  e > fmt.emin && fmt.p <= 54 && f = 1 lsl (fmt.p - 1)

(* The bit length of 0 < f < 2^53, read off the exponent field of its
   double, which holds it exactly. *)
let bit_length f =
  let bits = Int64.to_int (Int64.bits_of_float (float_of_int f)) in
  ((bits lsr 52) land 0x7ff) - 1022

(* Each rule's attempt is timed as the [fastpath] trace stage. *)
let shortest_tier buf ~mode fmt ~f ~e =
  let bits = bit_length f in
  let t0 = Tracing.start () in
  let r =
    Fastpath.convert_shortest buf ~f ~e ~mantissa_bits:bits
      ~narrow:(narrow fmt ~f ~e) ~high_ok:(high_ok mode f)
      ~est:(Scaling.fast_estimate_b10 ~bits ~e)
  in
  Tracing.finish Tracing.Fastpath t0;
  r

let fixed_tier buf ~mode fmt ~f ~e ~relative ~pos =
  let bits = bit_length f in
  let t0 = Tracing.start () in
  let r =
    Fastpath.convert_fixed buf ~relative ~pos ~f ~e ~mantissa_bits:bits
      ~narrow:(narrow fmt ~f ~e) ~high_ok:(high_ok mode f)
      ~est:(Scaling.fast_estimate_b10 ~bits ~e)
  in
  Tracing.finish Tracing.Fastpath t0;
  r

let table_tier buf ~base ~mode fmt (v : Fp.Value.finite) =
  let f = if tier_open ~base ~mode fmt then tier_mantissa v else 0 in
  if f = 0 then -1
  else shortest_tier buf ~mode fmt ~f ~e:v.e

let exact ~base ~mode ~strategy ~tie fmt (v : Fp.Value.finite) =
  let t0 = Tracing.start () in
  let bnd = Boundaries.of_finite ~mode fmt v in
  Tracing.finish Tracing.Boundaries t0;
  let t0 = Tracing.start () in
  let k, state =
    Scaling.scale strategy ~base ~b:fmt.Fp.Format_spec.b ~f:v.f ~e:v.e bnd
  in
  Tracing.finish Tracing.Scale t0;
  let t0 = Tracing.start () in
  let digits = Generate.free ~base ~tie state in
  Tracing.finish Tracing.Generate t0;
  { digits; k }

let convert ?(base = 10) ?(mode = Fp.Rounding.To_nearest_even)
    ?(strategy = Scaling.Fast_estimate) ?(tie = Generate.Closer_up) fmt v =
  if base < 2 || base > 36 then invalid_arg "Free_format.convert: base";
  (* The shortest rule certifies the default estimator's fixup only. *)
  match strategy with
  | Scaling.Fast_estimate ->
    let buf = Fastpath.lend Fastpath.max_digits in
    let r = table_tier buf ~base ~mode fmt v in
    if r < 0 then begin
      Fastpath.give_back buf;
      exact ~base ~mode ~strategy ~tie fmt v
    end
    else begin
      let n = Fastpath.digit_count r in
      let digits = Array.make n 0 in
      for i = 0 to n - 1 do
        digits.(i) <- Char.code (Bytes.get buf i) - 48
      done;
      Fastpath.give_back buf;
      Robust.Budget.observe_output_digits n;
      { digits; k = Fastpath.point r }
    end
  | _ -> exact ~base ~mode ~strategy ~tie fmt v

let digit_count ?base ?mode ?strategy fmt v =
  Array.length (convert ?base ?mode ?strategy fmt v).digits

let to_ratio ~base t =
  let n = Array.length t.digits in
  Ratio.mul
    (Ratio.of_bigint (Bigint.of_nat (Nat.of_base_digits ~base t.digits)))
    (Ratio.pow (Ratio.of_int base) (t.k - n))

let equal a b = a.k = b.k && a.digits = b.digits

let pp fmt t =
  Format.fprintf fmt "0.%se%d"
    (String.concat ""
       (Array.to_list (Array.map string_of_int t.digits)))
    t.k
