module Nat = Bignum.Nat
module Bigint = Bignum.Bigint
module Ratio = Bignum.Ratio

type t = { digits : int array; k : int }

module Trace = Telemetry.Trace

(* Shortest-output length per conversion (the paper's "average 15.2
   digits" distribution), recorded at the free-format entry point. *)
let h_digits =
  Telemetry.Metrics.histogram
    ~help:"Shortest free-format output length in significant digits."
    ~bounds:[| 1; 2; 4; 6; 8; 10; 12; 14; 16; 17; 18; 20; 24; 32; 64; 256;
               1024; 8192 |]
    "bdprint_free_format_digits"

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
   consulted on this path — it allocates no bignum at all — while
   deadlines and the output-digit budget keep the reference loop's
   per-digit cadence inside the kernel.  [attempt] is the stopping
   rule's entry point; the span it runs in is the [fastpath] stage. *)
let table_tier ~base ~mode fmt v attempt =
  if
    base = 10
    && fmt.Fp.Format_spec.b = 2
    && Fastpath.enabled ()
    && (not (Generate.force_pure ()))
    && (not (Robust.Faults.any_armed ()))
    && Fp.Rounding.is_nearest mode
  then begin
    let f_nat = v.Fp.Value.f in
    match Nat.to_int_opt f_nat with
    | Some f when f > 0 && f < 1 lsl 53 ->
      let bits = Nat.bit_length f_nat in
      let est = Scaling.fast_estimate_b10 ~bits ~e:v.Fp.Value.e in
      (* [Rounding.boundary_ok]'s high flag, without the tuple. *)
      let high_ok =
        match mode with
        | Fp.Rounding.To_nearest_even -> f land 1 = 0
        | Fp.Rounding.To_nearest_away -> false
        | _ -> true (* To_nearest_toward_zero; is_nearest already held *)
      in
      (* [Gaps.gap_low_is_narrow] in machine integers: the low gap is
         halved iff f sits on the normalization boundary b^(p-1), which
         for b = 2 and f < 2^53 can only happen when p <= 54. *)
      let narrow =
        v.Fp.Value.e > fmt.Fp.Format_spec.emin
        && fmt.Fp.Format_spec.p <= 54
        && f = 1 lsl (fmt.Fp.Format_spec.p - 1)
      in
      let t0 = Trace.start () in
      let r =
        attempt ~f ~e:v.Fp.Value.e ~mantissa_bits:bits ~narrow ~high_ok ~est
      in
      Trace.finish Trace.Fastpath t0;
      r
    | _ -> None
  end
  else None

let convert ?(base = 10) ?(mode = Fp.Rounding.To_nearest_even)
    ?(strategy = Scaling.Fast_estimate) ?(tie = Generate.Closer_up) fmt v =
  if base < 2 || base > 36 then invalid_arg "Free_format.convert: base";
  (* The shortest rule certifies the default estimator's fixup only. *)
  let fast =
    match strategy with
    | Scaling.Fast_estimate ->
      table_tier ~base ~mode fmt v Fastpath.convert_shortest
    | _ -> None
  in
  match fast with
  | Some (digits, k) ->
    Generate.observe_finish (Array.length digits);
    if Telemetry.Metrics.enabled () then
      Telemetry.Metrics.observe h_digits (Array.length digits);
    { digits; k }
  | None ->
  let t0 = Trace.start () in
  let bnd = Boundaries.of_finite ~mode fmt v in
  Trace.finish Trace.Boundaries t0;
  let t0 = Trace.start () in
  let k, state =
    Scaling.scale strategy ~base ~b:fmt.Fp.Format_spec.b ~f:v.Fp.Value.f
      ~e:v.Fp.Value.e bnd
  in
  Trace.finish Trace.Scale t0;
  let t0 = Trace.start () in
  let digits = Generate.free ~base ~tie state in
  Trace.finish Trace.Generate t0;
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.observe h_digits (Array.length digits);
  { digits; k }

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
