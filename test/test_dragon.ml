(* Tests for the core Burger-Dybvig printer: the paper's worked examples,
   equivalence of the integer-arithmetic path with the Section-2 rational
   reference, the three output conditions, scaling-strategy agreement and
   estimator bounds, and fixed-format correctness against the oracle. *)

module Nat = Bignum.Nat
module Ratio = Bignum.Ratio
open Fp
open Dragon

let qtest ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let b64 = Format_spec.binary64

let decompose_pos x =
  match Ieee.decompose x with
  | Value.Finite v when not v.neg -> v
  | _ -> Alcotest.failf "not positive finite: %g" x

let free_result = Alcotest.testable Free_format.pp Free_format.equal
let fixed_result = Alcotest.testable Fixed_format.pp Fixed_format.equal

(* ------------------------------------------------------------------ *)
(* Generators *)

let arb_pos_double =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      map
        (fun bits ->
          let x = Float.abs (Int64.float_of_bits bits) in
          if Float.is_nan x || x = Float.infinity || x = 0. then 1.5 else x)
        ui64)

(* Uniform over interesting structure: random mantissa and exponent,
   including denormals and binade boundaries. *)
let arb_structured_double =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      let* shape = int_bound 3 in
      let* e = int_range (-1074) 971 in
      let* m = int_bound ((1 lsl 52) - 1) in
      let f =
        match shape with
        | 0 -> (1 lsl 52) lor m (* normal *)
        | 1 -> 1 lsl 52 (* binade bottom: narrow low gap *)
        | 2 -> (1 lsl 53) - 1 (* binade top *)
        | _ -> max 1 (m land 0xffff) (* small, denormal when e = -1074 *)
      in
      let e = if f < 1 lsl 52 then -1074 else e in
      return (Ieee.compose (Value.finite ~f:(Nat.of_int f) ~e ())))

let arb_mode = QCheck.oneofl Rounding.all
let arb_base = QCheck.int_range 2 36

(* ------------------------------------------------------------------ *)
(* Paper examples *)

let test_paper_examples () =
  Alcotest.(check string) "1/3 free" "0.3333333333333333"
    (Printer.print (1. /. 3.));
  Alcotest.(check string) "0.3 not 0.2999999" "0.3" (Printer.print 0.3);
  Alcotest.(check string) "1e23 under unbiased rounding" "1e23"
    (Printer.print 1e23);
  Alcotest.(check string)
    "1e23 without rounding-mode knowledge needs 17 digits"
    "9.999999999999999e22"
    (Printer.print ~mode:Rounding.To_nearest_away 1e23);
  Alcotest.(check string) "100 to 20 places"
    "100.000000000000000#####"
    (Printer.print_fixed (Fixed_format.Absolute (-20)) 100.);
  (* binary32 third: the paper's intro illustrates with 0.3333333148 /
     0.3333333### ("might print as") — the actual IEEE single nearest 1/3
     is 11184811 * 2^-25 = 0.3333333432674408..., whose shortest form has
     8 digits, so the # marks start one position later than the
     illustration. *)
  let third32 =
    match
      Reader.read Format_spec.binary32 "0.333333333333333333333333333"
    with
    | Ok (Value.Finite v) -> v
    | _ -> Alcotest.fail "binary32 third"
  in
  let fx =
    Fixed_format.convert_exn Format_spec.binary32 third32
      (Fixed_format.Absolute (-10))
  in
  Alcotest.(check string) "1/3 single to 10 places" "0.33333334##"
    (Render.fixed ~base:10 fx);
  let fx17 =
    Fixed_format.convert_exn Format_spec.binary32 third32
      (Fixed_format.Absolute (-17))
  in
  Alcotest.(check bool) "garbage digits become #, not 0.3333333432674408"
    true
    (String.length (Render.fixed ~base:10 fx17) > 9
    && String.contains (Render.fixed ~base:10 fx17) '#')

let test_shortest_gallery () =
  let check x expected =
    Alcotest.(check string) (Printf.sprintf "%h" x) expected (Printer.print x)
  in
  check 0.1 "0.1";
  check 0.2 "0.2";
  check 0.30000000000000004 "0.30000000000000004";
  check 5e-324 "5e-324";
  check Float.max_float "1.7976931348623157e308";
  check Float.min_float "2.2250738585072014e-308";
  check 1.5 "1.5";
  check (-1.5) "-1.5";
  check 100. "100.0";
  check 1e22 "1e22";
  check 123.456 "123.456";
  check 2. "2.0";
  check 0. "0";
  check (-0.) "-0";
  check Float.infinity "inf";
  check Float.nan "nan"

(* ------------------------------------------------------------------ *)
(* Boundaries: Table 1 *)

let test_table1_one () =
  (* v = 1.0 = 2^52 * 2^-52: mantissa at the bottom of its binade, so the
     low gap is narrow. *)
  let bnd = Boundaries.of_finite b64 (decompose_pos 1.0) in
  let low, high = Boundaries.low_high bnd in
  let expect_low = Ratio.sub Ratio.one (Ratio.pow (Ratio.of_int 2) (-54)) in
  let expect_high = Ratio.add Ratio.one (Ratio.pow (Ratio.of_int 2) (-53)) in
  Alcotest.(check bool) "low" true (Ratio.equal low expect_low);
  Alcotest.(check bool) "high" true (Ratio.equal high expect_high);
  Alcotest.(check bool) "value" true
    (Ratio.equal (Boundaries.value bnd) Ratio.one);
  (* 2^52 is even, so both endpoints read back under round-to-even *)
  Alcotest.(check bool) "endpoints ok" true (bnd.low_ok && bnd.high_ok)

let test_table1_matches_gaps =
  qtest "Table 1 range = Gaps midpoints" arb_structured_double (fun x ->
      let v = decompose_pos x in
      let bnd = Boundaries.of_finite b64 v in
      let low, high = Boundaries.low_high bnd in
      let low', high' = Gaps.rounding_range b64 v in
      Ratio.equal low low' && Ratio.equal high high'
      && Ratio.equal (Boundaries.value bnd) (Value.to_ratio b64 v))

let test_directed_boundaries () =
  let v = decompose_pos 1.5 in
  let bnd = Boundaries.of_finite ~mode:Rounding.Toward_zero b64 v in
  let low, high = Boundaries.low_high bnd in
  Alcotest.(check bool) "toward-zero: low = v" true
    (Ratio.equal low (Ratio.of_ints 3 2));
  Alcotest.(check bool) "toward-zero: high = succ v" true
    (Ratio.equal high
       (Value.to_ratio b64 (decompose_pos (Ieee.succ_float 1.5))));
  Alcotest.(check bool) "flags" true (bnd.low_ok && not bnd.high_ok);
  (* ceiling on a negative value keeps the gap above the magnitude *)
  let vneg = { v with Value.neg = true } in
  let bndc = Boundaries.of_finite ~mode:Rounding.Toward_positive b64 vneg in
  let lowc, _ = Boundaries.low_high bndc in
  Alcotest.(check bool) "ceiling of negative = toward-zero of magnitude" true
    (Ratio.equal lowc (Ratio.of_ints 3 2) && bndc.low_ok)

(* ------------------------------------------------------------------ *)
(* Free format: reference equivalence and output conditions *)

let props_free =
  [
    qtest ~count:400 "integer path = rational reference"
      QCheck.(pair arb_structured_double arb_mode)
      (fun (x, mode) ->
        let v = decompose_pos x in
        Free_format.equal
          (Free_format.convert ~mode b64 v)
          (Reference.free ~mode b64 v));
    qtest ~count:150 "reference equivalence in other bases"
      QCheck.(pair arb_pos_double (QCheck.int_range 2 36))
      (fun (x, base) ->
        let v = decompose_pos x in
        Free_format.equal
          (Free_format.convert ~base b64 v)
          (Reference.free ~base b64 v));
    qtest ~count:400 "output conditions hold (Thms 3,4,5)"
      QCheck.(pair arb_structured_double arb_mode)
      (fun (x, mode) ->
        let v = decompose_pos x in
        match
          Reference.check_output ~mode b64 v (Free_format.convert ~mode b64 v)
        with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_reportf "%h/%s: %s" x (Rounding.to_string mode) e);
    qtest ~count:400 "all scaling strategies agree"
      QCheck.(pair arb_structured_double arb_base)
      (fun (x, base) ->
        let v = decompose_pos x in
        let results =
          List.map
            (fun strategy -> Free_format.convert ~base ~strategy b64 v)
            Scaling.all
        in
        match results with
        | first :: rest -> List.for_all (Free_format.equal first) rest
        | [] -> false);
    qtest ~count:400 "estimates within one below k"
      QCheck.(pair arb_structured_double arb_base)
      (fun (x, base) ->
        let v = decompose_pos x in
        let { Free_format.k; _ } = Free_format.convert ~base b64 v in
        List.for_all
          (fun strategy ->
            match
              Scaling.estimate strategy ~base ~b:2 ~f:v.Value.f ~e:v.Value.e
            with
            | None -> true
            | Some est -> est = k || est = k - 1)
          Scaling.all);
    qtest ~count:400 "round-trips through the reader in its mode"
      QCheck.(pair arb_structured_double arb_mode)
      (fun (x, mode) ->
        let v = decompose_pos x in
        let r = Free_format.convert ~mode b64 v in
        let read = Reader.read_ratio ~mode b64 (Free_format.to_ratio ~base:10 r) in
        Value.equal read (Value.Finite v));
    qtest ~count:200 "rendered string round-trips via the host reader"
      arb_structured_double
      (fun x ->
        let s = Printer.print x in
        Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float x));
    qtest ~count:200 "never longer than 17 digits for binary64"
      arb_structured_double (fun x ->
        Free_format.digit_count b64 (decompose_pos x) <= 17);
    qtest ~count:200 "binary32 needs at most 9 digits" QCheck.int64 (fun bits ->
        match Ieee.decompose_bits Ieee.spec_binary32 bits with
        | Value.Finite v when not v.Value.neg ->
          Free_format.digit_count Format_spec.binary32 v <= 9
        | _ -> true);
    qtest ~count:300 "no trailing zero digits (minimality corollary)"
      QCheck.(pair arb_structured_double arb_mode)
      (fun (x, mode) ->
        let r = Free_format.convert ~mode b64 (decompose_pos x) in
        let n = Array.length r.Free_format.digits in
        n = 1 || r.Free_format.digits.(n - 1) <> 0);
    qtest ~count:300 "never longer than libc's shortest round-tripping %g"
      arb_structured_double
      (fun x ->
        (* the shortest of %.15g/%.16g/%.17g that round-trips is what
           pragmatic C programs use; the paper's algorithm must never be
           longer (and is shorter whenever libc's form has slack) *)
        let ours = Free_format.digit_count b64 (decompose_pos x) in
        let libc_len =
          List.find_map
            (fun p ->
              let s = Printf.sprintf "%.*g" p x in
              if float_of_string s = x then Some p else None)
            [ 15; 16; 17 ]
        in
        match libc_len with Some l -> ours <= l | None -> false);
  ]

(* Appendix A, Lemma 2: after n digits the running output is exactly
   q_n * B^(k-n) below v, where q_n is the loop's scaled remainder.  Run
   the loop by hand over exact rationals and check the invariant at every
   step, together with the scaled-gap invariants (2) and (3) of
   Section 3.1. *)
let test_lemma2_invariants =
  qtest ~count:150 "Lemma 2 / Section 3.1 invariants hold stepwise"
    arb_structured_double
    (fun x ->
      let v = decompose_pos x in
      let bnd = Boundaries.of_finite b64 v in
      let base = 10 in
      let k, state = Scaling.scale Scaling.Fast_estimate ~base ~b:2 ~f:v.Value.f ~e:v.Value.e bnd in
      let value = Value.to_ratio b64 v in
      let low, high = Boundaries.low_high bnd in
      let rb = Ratio.of_int base in
      (* replay the pre-multiplied loop on rationals for 6 steps *)
      let ok = ref true in
      let r = ref state.Boundaries.r
      and m_plus = ref state.Boundaries.m_plus
      and m_minus = ref state.Boundaries.m_minus in
      let s = state.Boundaries.s in
      let prefix = ref Ratio.zero in
      (for n = 1 to 6 do
         let d, rest = Nat.divmod !r s in
         prefix :=
           Ratio.add !prefix
             (Ratio.mul
                (Ratio.of_int (Nat.to_int_exn d))
                (Ratio.pow rb (k - n)));
         let q_term =
           Ratio.mul
             (Bignum.Ratio.make
                (Bignum.Bigint.of_nat rest)
                (Bignum.Bigint.of_nat s))
             (Ratio.pow rb (k - n))
         in
         (* invariant (1): v = prefix + q_n * B^(k-n) *)
         if not (Ratio.equal value (Ratio.add !prefix q_term)) then ok := false;
         (* invariants (2)/(3): scaled gaps track the real half-gaps *)
         let gap m =
           Ratio.mul
             (Bignum.Ratio.make (Bignum.Bigint.of_nat m) (Bignum.Bigint.of_nat s))
             (Ratio.pow rb (k - n))
         in
         if not (Ratio.equal (Ratio.sub high value) (gap !m_plus)) then
           ok := false;
         if not (Ratio.equal (Ratio.sub value low) (gap !m_minus)) then
           ok := false;
         r := Nat.mul_int rest base;
         m_plus := Nat.mul_int !m_plus base;
         m_minus := Nat.mul_int !m_minus base
       done);
      !ok)

(* The fixup absorbs an estimate of k-1 for free; anything further off
   would break the algorithm — this negative test documents why the
   within-one bound of Section 3.2 is essential. *)
let test_estimate_off_by_two_breaks () =
  (* v = 1.5, correct k = 1.  Feed the digit loop a state scaled as if the
     estimate had been k - 2 = -1 and fixup had bumped it once to k - 1 =
     0 (i.e. the whole state multiplied by base, but only one
     pre-multiplication): the first quotient is >= base and the loop's
     digit-validity assertion (Theorem 1) trips.  This is exactly the
     failure the within-one guarantee of Section 3.2 rules out. *)
  let v = decompose_pos 1.5 in
  let bnd = Boundaries.of_finite b64 v in
  let factor = Scaling.power ~base:10 1 in
  let bad =
    {
      bnd with
      Boundaries.r = Nat.mul_int (Nat.mul bnd.Boundaries.r factor) 10;
      m_plus = Nat.mul_int (Nat.mul bnd.Boundaries.m_plus factor) 10;
      m_minus = Nat.mul_int (Nat.mul bnd.Boundaries.m_minus factor) 10;
    }
  in
  let broke =
    try
      let digits = Generate.free ~base:10 ~tie:Generate.Closer_up bad in
      Array.exists (fun d -> d >= 10) digits
    with Assert_failure _ -> true
  in
  Alcotest.(check bool) "digit loop rejects an off-by-two scale" true broke

let scheme_figure_props =
  List.map
    (fun (figure, name) ->
      qtest ~count:300
        (Printf.sprintf "Scheme %s = production printer" name)
        QCheck.(pair arb_structured_double arb_base)
        (fun (x, base) ->
          let v = decompose_pos x in
          Free_format.equal
            (Scheme_figures.flonum_to_digits figure ~base b64 v)
            (Free_format.convert ~base ~mode:Rounding.To_nearest_even
               ~tie:Generate.Closer_up b64 v)))
    [
      (Scheme_figures.Figure1, "Figure 1 (iterative)");
      (Scheme_figures.Figure2, "Figure 2 (float log)");
      (Scheme_figures.Figure3, "Figure 3 (fast estimator)");
    ]

let test_base3_format () =
  (* Table 1 and the generate loop are generic in the input base; check a
     ternary format against the rational reference. *)
  let fmt = Format_spec.make ~name:"ternary" ~b:3 ~p:8 ~emin:(-20) ~emax:20 () in
  let cases = ref [] in
  for f = 2187 (* 3^7 *) to 2250 do
    cases := { Value.neg = false; f = Nat.of_int f; e = -5 } :: !cases
  done;
  cases := { Value.neg = false; f = Nat.of_int 2187; e = -20 } :: !cases;
  cases := { Value.neg = false; f = Nat.of_int 11; e = -20 } :: !cases;
  List.iter
    (fun v ->
      Alcotest.(check free_result)
        (Value.to_string (Value.Finite v))
        (Reference.free fmt v)
        (Free_format.convert fmt v))
    !cases

let test_tie_strategies () =
  (* 2^-1 = 0.5 prints as "5e-1" whatever the tie rule; construct a value
     where d and d+1 are equidistant: v = 35 * 2^-3 = 4.375, printed to the
     shortest under a reader that accepts both endpoints... simpler to
     check determinism and closer-choice on a handful of values. *)
  List.iter
    (fun x ->
      let v = decompose_pos x in
      let up = Free_format.convert ~tie:Generate.Closer_up b64 v in
      let down = Free_format.convert ~tie:Generate.Closer_down b64 v in
      Alcotest.(check bool)
        (Printf.sprintf "tie choices stay in range for %g" x)
        true
        (Reference.check_output b64 v up = Ok ()
        && Reference.check_output b64 v down = Ok ()))
    [ 0.5; 1.25; 2.5; 6.25; 0.09375 ]

(* ------------------------------------------------------------------ *)
(* Fixed format *)

let digits_no_hash (t : Fixed_format.t) =
  Array.for_all (function Fixed_format.Digit _ -> true | _ -> false) t.digits

let test_fixed_known () =
  let fx req x = Printer.print_fixed req x in
  Alcotest.(check string) "pi to 4 places" "3.1416"
    (fx (Fixed_format.Absolute (-4)) 3.14159265358979);
  Alcotest.(check string) "pi to 2 significant" "3.1"
    (fx (Fixed_format.Relative 2) 3.14159265358979);
  Alcotest.(check string) "0.6 at units" "1.0" (fx (Fixed_format.Absolute 0) 0.6);
  Alcotest.(check string) "0.4 at units" "0.0" (fx (Fixed_format.Absolute 0) 0.4);
  Alcotest.(check string) "0.5 ties up at units" "1.0"
    (fx (Fixed_format.Absolute 0) 0.5);
  Alcotest.(check string) "12345 at tens ties up" "12350.0"
    (fx (Fixed_format.Absolute 1) 12345.);
  Alcotest.(check string) "12345 at tens ties to even"
    "12340.0"
    (Render.fixed ~base:10
       (Fixed_format.convert_exn ~tie:Generate.Closer_even b64
          (decompose_pos 12345.) (Fixed_format.Absolute 1)));
  Alcotest.(check string) "9.99 to 2 significant promotes" "10.0"
    (fx (Fixed_format.Relative 2) 9.99);
  Alcotest.(check string) "0.9999 to 1 significant promotes" "1.0"
    (fx (Fixed_format.Relative 1) 0.9999);
  Alcotest.(check string) "1/3 to 10 significant" "0.3333333333"
    (fx (Fixed_format.Relative 10) (1. /. 3.));
  Alcotest.(check string) "negative carries sign" "-3.1416"
    (fx (Fixed_format.Absolute (-4)) (-3.14159265358979))

let test_fixed_zero_case () =
  (* values at or below half a quantum *)
  let v = decompose_pos 0.4 in
  let t = Fixed_format.convert_exn b64 v (Fixed_format.Absolute 0) in
  Alcotest.(check fixed_result) "0.4 at units"
    { Fixed_format.digits = [| Fixed_format.Digit 0 |]; k = 1 }
    t;
  let v5 = decompose_pos 0.5 in
  let tie_up = Fixed_format.convert_exn b64 v5 (Fixed_format.Absolute 0) in
  Alcotest.(check fixed_result) "0.5 ties up"
    { Fixed_format.digits = [| Fixed_format.Digit 1 |]; k = 1 }
    tie_up;
  let tie_down =
    Fixed_format.convert_exn ~tie:Generate.Closer_down b64 v5
      (Fixed_format.Absolute 0)
  in
  Alcotest.(check fixed_result) "0.5 ties down"
    { Fixed_format.digits = [| Fixed_format.Digit 0 |]; k = 1 }
    tie_down;
  let tiny = Fixed_format.convert_exn b64 (decompose_pos 1e-30) (Fixed_format.Absolute 0) in
  Alcotest.(check fixed_result) "1e-30 at units"
    { Fixed_format.digits = [| Fixed_format.Digit 0 |]; k = 1 }
    tiny

(* The quantum at position j dominates the float gap on both sides: the
   paper's "enough precision" case, where output equals the exact
   rounding. *)
let quantum_dominates v j =
  let low, high = Gaps.rounding_range b64 v in
  let value = Value.to_ratio b64 v in
  let qhalf = Ratio.mul Ratio.half (Ratio.pow (Ratio.of_int 10) j) in
  Ratio.compare (Ratio.sub value qhalf) low <= 0
  && Ratio.compare (Ratio.add value qhalf) high >= 0

let props_fixed =
  [
    qtest ~count:400 "integer path = rational reference (fixed)"
      QCheck.(
        quad arb_structured_double arb_mode
          (QCheck.int_range (-30) 30)
          (QCheck.oneofl
             [ Generate.Closer_up; Generate.Closer_down; Generate.Closer_even ]))
      (fun (x, mode, pos, tie) ->
        let v = decompose_pos x in
        let requests =
          [ Fixed_format.Absolute pos; Fixed_format.Relative (1 + abs pos) ]
        in
        List.for_all
          (fun req ->
            Fixed_format.equal
              (Fixed_format.convert_exn ~mode ~tie b64 v req)
              (Reference.fixed ~mode ~tie b64 v req))
          requests);
    qtest ~count:200 "fixed = reference in other bases"
      QCheck.(
        triple arb_pos_double (QCheck.int_range 2 36) (QCheck.int_range (-12) 12))
      (fun (x, base, pos) ->
        let v = decompose_pos x in
        List.for_all
          (fun req ->
            Fixed_format.equal
              (Fixed_format.convert_exn ~base b64 v req)
              (Reference.fixed ~base b64 v req))
          [ Fixed_format.Absolute pos; Fixed_format.Relative (1 + abs pos) ]);
    qtest ~count:300 "full-precision output is the oracle's rounding"
      QCheck.(pair arb_pos_double (QCheck.int_range 1 17))
      (fun (x, nd) ->
        let v = decompose_pos x in
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Relative nd) in
        QCheck.assume (quantum_dominates v (t.Fixed_format.k - nd));
        let digits, k =
          Oracle.Exact_decimal.round_significant ~tie:Oracle.Exact_decimal.Half_up
            ~base:10 ~ndigits:nd (Value.to_ratio b64 v)
        in
        t.Fixed_format.k = k
        && Array.length t.digits = nd
        && digits_no_hash t
        && Array.for_all2
             (fun a b -> a = Fixed_format.Digit b)
             t.digits digits);
    qtest ~count:300 "relative requests yield exactly i positions"
      QCheck.(pair arb_structured_double (QCheck.int_range 1 25))
      (fun (x, nd) ->
        let v = decompose_pos x in
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Relative nd) in
        Array.length t.Fixed_format.digits = nd);
    qtest ~count:300 "absolute requests stop at position j"
      QCheck.(pair arb_pos_double (QCheck.int_range (-25) 25))
      (fun (x, j) ->
        let v = decompose_pos x in
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Absolute j) in
        t.Fixed_format.k - Array.length t.digits = j);
    qtest ~count:300 "output within half quantum when precision suffices"
      QCheck.(pair arb_pos_double (QCheck.int_range (-20) 20))
      (fun (x, j) ->
        let v = decompose_pos x in
        QCheck.assume (quantum_dominates v j);
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Absolute j) in
        let out = Fixed_format.to_ratio ~base:10 t in
        let half_q = Ratio.mul Ratio.half (Ratio.pow (Ratio.of_int 10) j) in
        digits_no_hash t
        && Ratio.compare
             (Ratio.abs (Ratio.sub out (Value.to_ratio b64 v)))
             half_q
           <= 0);
    qtest ~count:400 "hash positions truly insignificant"
      QCheck.(pair arb_structured_double (QCheck.int_range 1 30))
      (fun (x, nd) ->
        let v = decompose_pos x in
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Relative nd) in
        QCheck.assume (not (digits_no_hash t));
        let fill d =
          Ratio.add
            (Fixed_format.to_ratio ~base:10 t)
            (Ratio.mul (Ratio.of_int d)
               (snd
                  (Array.fold_left
                     (fun (pos, acc) dig ->
                       match dig with
                       | Fixed_format.Hash ->
                         ( pos - 1,
                           Ratio.add acc (Ratio.pow (Ratio.of_int 10) (pos - 1)) )
                       | Fixed_format.Digit _ -> (pos - 1, acc))
                     (t.Fixed_format.k, Ratio.zero)
                     t.digits)))
        in
        (* filling every # with 0 and with 9 must both read back as v *)
        Value.equal (Reader.read_ratio b64 (fill 0)) (Value.Finite v)
        && Value.equal (Reader.read_ratio b64 (fill 9)) (Value.Finite v));
    qtest ~count:400 "hashes only as a suffix"
      QCheck.(pair arb_structured_double (QCheck.int_range 1 30))
      (fun (x, nd) ->
        let v = decompose_pos x in
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Relative nd) in
        let seen_hash = ref false in
        Array.for_all
          (fun d ->
            match d with
            | Fixed_format.Hash ->
              seen_hash := true;
              true
            | Fixed_format.Digit _ -> not !seen_hash)
          t.Fixed_format.digits);
    qtest ~count:200 "fixed and free agree when free is shorter"
      arb_pos_double
      (fun x ->
        let v = decompose_pos x in
        let free = Free_format.convert b64 v in
        let n = Array.length free.Free_format.digits in
        let t = Fixed_format.convert_exn b64 v (Fixed_format.Relative n) in
        QCheck.assume (digits_no_hash t);
        (* at the free-format length, fixed must denote a value at most one
           ulp away from the free result (both are within the range) *)
        t.Fixed_format.k = free.Free_format.k
        ||
        let fr = Free_format.to_ratio ~base:10 free in
        let fx = Fixed_format.to_ratio ~base:10 t in
        Ratio.compare (Ratio.abs (Ratio.sub fr fx))
          (Ratio.pow (Ratio.of_int 10) (free.Free_format.k - n))
        <= 0);
  ]

(* Argument checks come before the special-value shortcut: a bad base
   or digit count is the same range error whatever the value. *)
let test_fixed_arguments_first () =
  let error_of base req x =
    match Printer.print_fixed ~base req x with
    | s -> Alcotest.failf "%h: expected a range error, got %S" x s
    | exception Robust.Error.E (Robust.Error.Range _ as e) -> e
    | exception Robust.Error.E e ->
      Alcotest.failf "%h: not a range error: %s" x (Robust.Error.to_string e)
  in
  List.iter
    (fun (base, req) ->
      let expected = error_of base req 1. in
      List.iter
        (fun x ->
          if error_of base req x <> expected then
            Alcotest.failf "%h: different error from 1.0's" x)
        [ 0.; -0.; Float.infinity; Float.nan ])
    [ (99, Fixed_format.Relative 3); (10, Fixed_format.Relative 0) ]

let test_denormal_hashes () =
  (* The smallest denormal has a single significant decimal digit. *)
  let v = decompose_pos (Int64.float_of_bits 1L) in
  let t = Fixed_format.convert_exn b64 v (Fixed_format.Relative 10) in
  Alcotest.(check int) "one significant digit" 1
    (Fixed_format.significant_digits t);
  Alcotest.(check string) "render" "5.#########e-324"
    (Render.fixed ~base:10 ~notation:Render.Scientific t)

let () =
  Alcotest.run "dragon"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "headline examples" `Quick test_paper_examples;
          Alcotest.test_case "shortest gallery" `Quick test_shortest_gallery;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "Table 1 for 1.0" `Quick test_table1_one;
          test_table1_matches_gaps;
          Alcotest.test_case "directed modes" `Quick test_directed_boundaries;
        ] );
      ("free-format", props_free);
      ( "invariants",
        [
          test_lemma2_invariants;
          Alcotest.test_case "off-by-two estimate breaks (negative)" `Quick
            test_estimate_off_by_two_breaks;
        ] );
      ("scheme-figures", scheme_figure_props);
      ( "free-format-units",
        [
          Alcotest.test_case "ternary format" `Quick test_base3_format;
          Alcotest.test_case "tie strategies" `Quick test_tie_strategies;
        ] );
      ( "fixed-format-units",
        [
          Alcotest.test_case "known values" `Quick test_fixed_known;
          Alcotest.test_case "below half quantum" `Quick test_fixed_zero_case;
          Alcotest.test_case "denormal hashes" `Quick test_denormal_hashes;
          Alcotest.test_case "arguments checked before special values"
            `Quick test_fixed_arguments_first;
        ] );
      ("fixed-format", props_fixed);
    ]
