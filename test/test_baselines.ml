(* Tests for the baseline printers and the workload generators. *)

module Nat = Bignum.Nat
module Ratio = Bignum.Ratio
open Fp

let b64 = Format_spec.binary64

let qtest ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let decompose_pos x =
  match Ieee.decompose x with
  | Value.Finite v when not v.neg -> v
  | _ -> Alcotest.failf "not positive finite: %g" x

let arb_pos_double =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      map
        (fun bits ->
          let x = Float.abs (Int64.float_of_bits bits) in
          if Float.is_nan x || x = Float.infinity || x = 0. then 1.5 else x)
        ui64)

(* ------------------------------------------------------------------ *)
(* Steele & White *)

let test_steele_white_1e23 () =
  (* Without rounding-mode awareness the shorter "1e23" is not available:
     both endpoints are treated as excluded. *)
  Alcotest.(check string) "1e23" "9.999999999999999e22"
    (Baselines.Steele_white.print 1e23);
  Alcotest.(check string) "0.3 still short" "0.3"
    (Baselines.Steele_white.print 0.3)

let steele_white_props =
  [
    qtest "output always reads back (any nearest reader)" arb_pos_double
      (fun x ->
        let v = decompose_pos x in
        let r = Baselines.Steele_white.convert b64 v in
        let out = Dragon.Free_format.to_ratio ~base:10 r in
        List.for_all
          (fun mode ->
            Value.equal (Reader.read_ratio ~mode b64 out) (Value.Finite v))
          [
            Rounding.To_nearest_even;
            Rounding.To_nearest_away;
            Rounding.To_nearest_toward_zero;
          ]);
    qtest "never shorter than the mode-aware printer" arb_pos_double (fun x ->
        let v = decompose_pos x in
        Array.length (Baselines.Steele_white.convert b64 v).Dragon.Free_format.digits
        >= Array.length (Dragon.Free_format.convert b64 v).Dragon.Free_format.digits);
    qtest "agrees with the production printer on odd mantissas"
      arb_pos_double (fun x ->
        (* an odd mantissa closes neither endpoint, so the two coincide *)
        let v = decompose_pos x in
        QCheck.assume (not (Nat.is_even v.Value.f));
        Dragon.Free_format.equal
          (Baselines.Steele_white.convert b64 v)
          (Dragon.Free_format.convert b64 v));
  ]

(* ------------------------------------------------------------------ *)
(* Naive fixed *)

let test_naive_fixed_known () =
  let check x nd expected =
    Alcotest.(check string)
      (Printf.sprintf "%g to %d" x nd)
      expected
      (Baselines.Naive_fixed.print ~ndigits:nd x)
  in
  check 1.0 5 "1.0000e0";
  check (1. /. 3.) 10 "3.333333333e-1";
  check 123.456 9 "1.23456000e2";
  check 0.1 20 "1.0000000000000000555e-1";
  check 9.99 2 "1.0e1";
  check 1e23 17 "9.9999999999999992e22"

let naive_fixed_props =
  [
    qtest ~count:300 "matches the exact oracle"
      QCheck.(pair arb_pos_double (QCheck.int_range 1 20))
      (fun (x, nd) ->
        let v = decompose_pos x in
        let digits, k = Baselines.Naive_fixed.convert ~ndigits:nd b64 v in
        let digits', k' =
          Oracle.Exact_decimal.round_significant ~base:10 ~ndigits:nd
            (Value.to_ratio b64 v)
        in
        k = k' && digits = digits');
    qtest "17 digits always read back" arb_pos_double (fun x ->
        let s = Baselines.Naive_fixed.print ~ndigits:17 x in
        float_of_string s = x);
    qtest ~count:300 "digit-loop variant agrees with the oracle variant"
      QCheck.(pair arb_pos_double (QCheck.int_range 1 20))
      (fun (x, nd) ->
        let v = decompose_pos x in
        Baselines.Naive_fixed.convert_digit_loop ~ndigits:nd b64 v
        = Baselines.Naive_fixed.convert ~ndigits:nd b64 v);
  ]

(* ------------------------------------------------------------------ *)
(* Float-arithmetic fixed (inaccurate printf model) *)

let test_float_fixed_basics () =
  let digits, k = Baselines.Float_fixed.convert ~ndigits:5 1.0 in
  Alcotest.(check (array int)) "1.0 digits" [| 1; 0; 0; 0; 0 |] digits;
  Alcotest.(check int) "1.0 k" 1 k;
  Alcotest.(check bool) "1.0 correctly rounded" true
    (Baselines.Float_fixed.correctly_rounded ~ndigits:17 1.0);
  Alcotest.(check bool) "123.25 correctly rounded at 6" true
    (Baselines.Float_fixed.correctly_rounded ~ndigits:6 123.25)

let test_float_fixed_is_inaccurate () =
  (* The whole point of this baseline: on a stressing corpus it gets a
     measurable number of values wrong at 17 digits. *)
  let corpus = Workloads.Schryer.corpus ~size:20_000 () in
  let wrong =
    Array.fold_left
      (fun acc x ->
        if Baselines.Float_fixed.correctly_rounded ~ndigits:17 x then acc
        else acc + 1)
      0 corpus
  in
  Alcotest.(check bool)
    (Printf.sprintf "some incorrect at 17 digits (%d/20000)" wrong)
    true (wrong > 0);
  Alcotest.(check bool)
    (Printf.sprintf "but mostly correct (%d/20000)" wrong)
    true
    (wrong < 10_000);
  (* The model's count, pinned: EXPERIMENTS E4 reproduces Table 3 from
     Ext64.pow10, so any change to the powers it composes shows here. *)
  Alcotest.(check int) "incorrect at 17 digits" 31 wrong

let float_fixed_props =
  [
    qtest "digit arrays well formed"
      QCheck.(pair arb_pos_double (QCheck.int_range 1 17))
      (fun (x, nd) ->
        let digits, _ = Baselines.Float_fixed.convert ~ndigits:nd x in
        Array.length digits = nd
        && Array.for_all (fun d -> 0 <= d && d <= 9) digits
        && digits.(0) > 0);
    qtest "close to the exact value (within a few ulps of position n)"
      QCheck.(pair arb_pos_double (QCheck.int_range 1 15))
      (fun (x, nd) ->
        let digits, k = Baselines.Float_fixed.convert ~ndigits:nd x in
        let v = Value.to_ratio b64 (decompose_pos x) in
        let out =
          Ratio.mul
            (Ratio.of_bigint
               (Bignum.Bigint.of_nat (Nat.of_base_digits ~base:10 digits)))
            (Ratio.pow (Ratio.of_int 10) (k - nd))
        in
        (* float normalisation drifts, but stays within ~4 units of the
           last printed place on sane inputs *)
        Ratio.compare
          (Ratio.abs (Ratio.sub out v))
          (Ratio.mul (Ratio.of_int 4) (Ratio.pow (Ratio.of_int 10) (k - nd)))
        <= 0);
  ]

(* ------------------------------------------------------------------ *)
(* Workloads *)

let test_schryer_corpus () =
  let c = Workloads.Schryer.corpus ~size:50_000 () in
  Alcotest.(check int) "size" 50_000 (Array.length c);
  Alcotest.(check bool) "all positive normal finite" true
    (Array.for_all
       (fun x ->
         Float.is_finite x && x >= 2.2250738585072014e-308)
       c);
  let c2 = Workloads.Schryer.corpus ~size:50_000 () in
  Alcotest.(check bool) "deterministic" true (c = c2);
  Alcotest.(check int) "default size is the paper's" 250_680
    Workloads.Schryer.default_size;
  (* patterns all have the hidden bit and fit 53 bits *)
  Alcotest.(check bool) "patterns well-formed" true
    (Array.for_all
       (fun f -> f >= 1 lsl 52 && f < 1 lsl 53)
       (Workloads.Schryer.patterns ()))

let test_random_corpora () =
  let a = Workloads.Corpus.random_positive_normals ~seed:42 1000 in
  let b = Workloads.Corpus.random_positive_normals ~seed:42 1000 in
  Alcotest.(check bool) "reproducible" true (a = b);
  Alcotest.(check bool) "normals" true
    (Array.for_all (fun x -> x >= 2.2250738585072014e-308 && Float.is_finite x) a);
  let d = Workloads.Corpus.random_denormals ~seed:7 500 in
  Alcotest.(check bool) "denormals" true
    (Array.for_all (fun x -> x > 0. && x < 2.2250738585072014e-308) d);
  let f = Workloads.Corpus.random_finite ~seed:1 1000 in
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite f)

let test_torture_inputs () =
  let inputs = Workloads.Corpus.torture_reader_inputs ~seed:5 3000 in
  Alcotest.(check int) "count" 3000 (Array.length inputs);
  (* exact ties and one-off-tie inputs: both readers must agree with each
     other and with the host everywhere *)
  let fallbacks_before = (Reader.Fast.stats ()).Reader.Fast.fallback in
  Array.iter
    (fun s ->
      let exact =
        match Reader.read_float s with Ok x -> x | Error e -> Alcotest.fail (Robust.Error.to_string e)
      in
      let fast =
        match Reader.Fast.read s with Ok x -> x | Error e -> Alcotest.fail (Robust.Error.to_string e)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fast = exact on %s" s)
        true
        (Int64.equal (Int64.bits_of_float fast) (Int64.bits_of_float exact));
      Alcotest.(check bool)
        (Printf.sprintf "libc agrees on %s" s)
        true
        (Float.equal exact (float_of_string s)))
    inputs;
  let fallbacks = (Reader.Fast.stats ()).Reader.Fast.fallback - fallbacks_before in
  (* by construction these sit at or next to rounding boundaries, so
     past 19 digits the fast reader's truncations straddle a midpoint and
     its exact comparison runs often *)
  Alcotest.(check bool)
    (Printf.sprintf "torture inputs force fallbacks (%d/3000)" fallbacks)
    true (fallbacks > 500)

let test_hard_cases_round_trip () =
  Array.iter
    (fun x ->
      let s = Dragon.Printer.print x in
      Alcotest.(check bool)
        (Printf.sprintf "%h -> %s" x s)
        true
        (float_of_string s = x))
    Workloads.Corpus.hard_cases

let () =
  Alcotest.run "baselines"
    [
      ( "steele-white",
        Alcotest.test_case "1e23 needs 17 digits" `Quick test_steele_white_1e23
        :: steele_white_props );
      ( "naive-fixed",
        Alcotest.test_case "known values" `Quick test_naive_fixed_known
        :: naive_fixed_props );
      ( "float-fixed",
        Alcotest.test_case "basics" `Quick test_float_fixed_basics
        :: Alcotest.test_case "inaccurate on the corpus" `Quick
             test_float_fixed_is_inaccurate
        :: float_fixed_props );
      ( "workloads",
        [
          Alcotest.test_case "schryer corpus" `Quick test_schryer_corpus;
          Alcotest.test_case "random corpora" `Quick test_random_corpora;
          Alcotest.test_case "torture reader inputs" `Quick test_torture_inputs;
          Alcotest.test_case "hard cases round-trip" `Quick
            test_hard_cases_round_trip;
        ] );
    ]
