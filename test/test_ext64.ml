(* Tests for the extended-precision softfloat substrate and the printers
   built on it (the inaccurate-printf model and Gay's certified fast
   path). *)

module Nat = Bignum.Nat
module Bigint = Bignum.Bigint
module Ratio = Bignum.Ratio
open Baselines

let b64 = Fp.Format_spec.binary64

let qtest ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let decompose_pos x =
  match Fp.Ieee.decompose x with
  | Fp.Value.Finite v -> { v with Fp.Value.neg = false }
  | _ -> Alcotest.failf "not finite: %g" x

(* Exact rational denoted by an Ext64 value. *)
let ratio_of_ext (t : Ext64.t) =
  (* unsigned mantissa: split to avoid the sign bit *)
  let lo = Int64.to_int (Int64.logand t.Ext64.m 0x3FFFFFFFFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical t.Ext64.m 62) in
  let m =
    Nat.add (Nat.of_int lo) (Nat.shift_left (Nat.of_int hi) 62)
  in
  let num = Ratio.of_bigint (Bigint.of_nat m) in
  Ratio.mul num (Ratio.pow (Ratio.of_int 2) t.Ext64.e)

let test_of_float_exact () =
  List.iter
    (fun x ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%h" x)
        x
        (Ext64.to_float (Ext64.of_float x)))
    [ 1.0; 0.5; 3.14159; 1e300; 1e-300; 4.9e-324; Float.max_float ]

let test_pow10_small_exact () =
  (* powers up to 10^19 fit 64 bits: must be exactly representable *)
  for n = 0 to 19 do
    let exact = Ratio.of_bigint (Bigint.of_nat (Nat.pow_int 10 n)) in
    Alcotest.(check bool)
      (Printf.sprintf "10^%d exact" n)
      true
      (Ratio.equal (ratio_of_ext (Ext64.pow10 n)) exact)
  done

let test_pow10_error_bounded () =
  (* larger powers are composed with rounded multiplications: relative
     error under 16 ulps of 2^-64 *)
  let bound = Ratio.make (Bigint.of_int 16) (Bigint.pow (Bigint.of_int 2) 64) in
  List.iter
    (fun n ->
      let approx = ratio_of_ext (Ext64.pow10 n) in
      let exact =
        if n >= 0 then Ratio.of_bigint (Bigint.of_nat (Nat.pow_int 10 n))
        else Ratio.inv (Ratio.of_bigint (Bigint.of_nat (Nat.pow_int 10 (-n))))
      in
      let rel = Ratio.div (Ratio.abs (Ratio.sub approx exact)) exact in
      Alcotest.(check bool)
        (Printf.sprintf "10^%d within bound" n)
        true
        (Ratio.compare rel bound <= 0))
    [ 23; 100; 308; 350; -5; -100; -323; -350 ]

let test_to_int64_round () =
  let check x expected =
    Alcotest.(check int64) (Printf.sprintf "%g" x) expected
      (Ext64.to_int64_round (Ext64.of_float x))
  in
  check 1.0 1L;
  check 1.5 2L;
  (* ties to even *)
  check 2.5 2L;
  check 2.51 3L;
  check 1e15 1000000000000000L;
  check 0.4 0L

let props =
  [
    qtest "mul within one ulp of exact"
      QCheck.(
        pair
          (QCheck.map (fun x -> Float.abs x +. 1e-30) QCheck.float)
          (QCheck.map (fun x -> Float.abs x +. 1e-30) QCheck.float))
      (fun (x, y) ->
        QCheck.assume (Float.is_finite (x *. y) && x *. y > 0.);
        let a = Ext64.of_float x and b = Ext64.of_float y in
        let p = Ext64.mul a b in
        let exact = Ratio.mul (ratio_of_ext a) (ratio_of_ext b) in
        let got = ratio_of_ext p in
        let rel = Ratio.div (Ratio.abs (Ratio.sub got exact)) exact in
        Ratio.compare rel
          (Ratio.make Bigint.one (Bigint.pow (Bigint.of_int 2) 64))
        <= 0);
    qtest ~count:500 "gay heuristic always correctly rounded"
      QCheck.(
        pair
          (QCheck.make ~print:(Printf.sprintf "%h")
             QCheck.Gen.(
               map
                 (fun bits ->
                   let x = Float.abs (Int64.float_of_bits bits) in
                   if Float.is_nan x || x = Float.infinity || x = 0. then 1.5
                   else x)
                 ui64))
          (QCheck.int_range 1 17))
      (fun (x, nd) ->
        let v = decompose_pos x in
        Gay_heuristic.convert ~ndigits:nd b64 v
        = Naive_fixed.convert ~ndigits:nd b64 v);
  ]

let test_pow10_correct_exact () =
  (* the certified table must be correctly rounded everywhere *)
  let module Nat = Bignum.Nat in
  for n = -350 to 350 do
    let t = Ext64.pow10_correct n in
    let approx = ratio_of_ext t in
    let exact =
      if n >= 0 then Ratio.of_bigint (Bigint.of_nat (Nat.pow_int 10 n))
      else Ratio.inv (Ratio.of_bigint (Bigint.of_nat (Nat.pow_int 10 (-n))))
    in
    (* half an ulp of the 64-bit mantissa: one unit at 2^(e) *)
    let ulp = Ratio.pow (Ratio.of_int 2) t.Ext64.e in
    if
      Ratio.compare
        (Ratio.abs (Ratio.sub approx exact))
        (Ratio.mul Ratio.half ulp)
      > 0
    then Alcotest.failf "10^%d not correctly rounded" n
  done

let test_gay_heuristic_mostly_fast () =
  let corpus = Workloads.Schryer.corpus ~size:20_000 () in
  let h0 = Gay_heuristic.fast_path_hits () and m0 = Gay_heuristic.fallbacks () in
  Array.iter
    (fun x ->
      ignore (Gay_heuristic.convert ~ndigits:15 b64 (decompose_pos x)))
    corpus;
  let hits = Gay_heuristic.fast_path_hits () - h0 in
  let misses = Gay_heuristic.fallbacks () - m0 in
  Alcotest.(check int) "all accounted" 20_000 (hits + misses);
  Alcotest.(check bool)
    (Printf.sprintf "fast path dominates (%d hits, %d fallbacks)" hits misses)
    true
    (hits > 19_000)

let () =
  Alcotest.run "ext64"
    [
      ( "ext64",
        [
          Alcotest.test_case "of_float exact" `Quick test_of_float_exact;
          Alcotest.test_case "small powers exact" `Quick test_pow10_small_exact;
          Alcotest.test_case "large powers bounded" `Quick
            test_pow10_error_bounded;
          Alcotest.test_case "to_int64_round" `Quick test_to_int64_round;
          Alcotest.test_case "pow10_correct is correctly rounded" `Quick
            test_pow10_correct_exact;
        ] );
      ( "gay-heuristic",
        [
          Alcotest.test_case "fast path dominates" `Quick
            test_gay_heuristic_mostly_fast;
        ] );
      ("props", props);
    ]
