(* Tests for the accurate reader: parsing, correct rounding in every mode,
   overflow/underflow semantics, and agreement with the host strtod. *)

module Nat = Bignum.Nat
module Ratio = Bignum.Ratio
module R = Reader
open Fp

let value = Alcotest.testable Value.pp Value.equal

let ok_read ?mode fmt s =
  match R.read ?mode fmt s with
  | Ok v -> v
  | Error e -> Alcotest.failf "read %S failed: %s" s (Robust.Error.to_string e)

let ok_read_float ?mode s =
  match R.read_float ?mode s with
  | Ok v -> v
  | Error e -> Alcotest.failf "read_float %S failed: %s" s (Robust.Error.to_string e)

let qtest ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_parse_forms () =
  let num s =
    match R.parse s with
    | Ok (R.Number d) -> d
    | Ok _ -> Alcotest.failf "parse %S: not a number" s
    | Error e -> Alcotest.failf "parse %S: %s" s (Robust.Error.to_string e)
  in
  let check s digits exp10 neg =
    let d = num s in
    Alcotest.(check string) (s ^ " digits") digits (Nat.to_string d.digits);
    Alcotest.(check int) (s ^ " exp10") exp10 d.R.exp10;
    Alcotest.(check bool) (s ^ " neg") neg d.R.neg
  in
  check "123" "123" 0 false;
  check "-123" "123" 0 true;
  check "+123" "123" 0 false;
  check "1.5" "15" (-1) false;
  check "0.001" "1" (-3) false;
  check ".5" "5" (-1) false;
  check "5." "5" 0 false;
  check "1e10" "1" 10 false;
  check "1E10" "1" 10 false;
  check "2.5e-3" "25" (-4) false;
  check "1_000.5" "10005" (-1) false;
  check "0" "0" 0 false;
  check "00012" "12" 0 false

let test_parse_specials () =
  Alcotest.(check bool) "inf" true (R.parse "inf" = Ok (R.Infinity false));
  Alcotest.(check bool) "-INF" true (R.parse "-INF" = Ok (R.Infinity true));
  Alcotest.(check bool) "Infinity" true
    (R.parse "Infinity" = Ok (R.Infinity false));
  Alcotest.(check bool) "nan" true (R.parse "NaN" = Ok R.Not_a_number)

let test_parse_errors () =
  let fails s =
    match R.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  List.iter fails [ ""; "-"; "."; "e5"; "1e"; "1e+"; "1.5x"; "--1"; "1..2" ]

(* ------------------------------------------------------------------ *)
(* Correct rounding, nearest-even, vs the host libc *)

let test_known_doubles () =
  let check s =
    Alcotest.(check (float 0.)) s (float_of_string s) (ok_read_float s)
  in
  List.iter check
    [
      "0.1"; "0.2"; "0.3"; "1.5"; "3.141592653589793"; "2.718281828459045";
      "1e308"; "1e-308"; "1e-320"; "4.9e-324"; "1.7976931348623157e308";
      "123456789012345678901234567890"; "0.000001"; "9007199254740993";
      "5e-324"; "2.2250738585072011e-308" (* the famous slow strtod case *);
      "2.2250738585072014e-308"; "1e23"; "8.98846567431158e307";
    ]

let test_unbiased_tie_1e23 () =
  (* 10^23 lies exactly between two doubles; ties-to-even picks the one
     with even mantissa (the paper's example motivating input-rounding
     awareness). *)
  let v = ok_read Format_spec.binary64 "1e23" in
  (match v with
  | Value.Finite f ->
    Alcotest.(check bool) "mantissa even" true (Nat.is_even f.f)
  | _ -> Alcotest.fail "1e23 not finite");
  Alcotest.(check (float 0.)) "agrees with libc" 1e23 (ok_read_float "1e23");
  (* ties-away goes to the other neighbour *)
  let away = ok_read_float ~mode:Rounding.To_nearest_away "1e23" in
  Alcotest.(check bool) "away picks the other neighbour" true (away <> 1e23)

let test_tie_modes_at_midpoint () =
  (* Exact midpoint between 1.0 and its successor. *)
  let midpoint = "1.00000000000000011102230246251565404236316680908203125" in
  Alcotest.(check (float 0.)) "even tie -> 1.0" 1.0 (ok_read_float midpoint);
  Alcotest.(check (float 0.)) "away tie -> succ 1.0"
    (Ieee.succ_float 1.0)
    (ok_read_float ~mode:Rounding.To_nearest_away midpoint);
  Alcotest.(check (float 0.)) "toward-zero tie -> 1.0" 1.0
    (ok_read_float ~mode:Rounding.To_nearest_toward_zero midpoint);
  Alcotest.(check (float 0.)) "negative midpoint, away"
    (-.Ieee.succ_float 1.0)
    (ok_read_float ~mode:Rounding.To_nearest_away ("-" ^ midpoint))

let test_directed_modes () =
  (* 0.1 is strictly between two doubles. *)
  let below = ok_read_float ~mode:Rounding.Toward_negative "0.1" in
  let above = ok_read_float ~mode:Rounding.Toward_positive "0.1" in
  let near = ok_read_float "0.1" in
  Alcotest.(check (float 0.)) "adjacent" above (Ieee.succ_float below);
  Alcotest.(check bool) "nearest among them" true (near = below || near = above);
  Alcotest.(check (float 0.)) "toward zero = toward neg for positives" below
    (ok_read_float ~mode:Rounding.Toward_zero "0.1");
  (* signs flip the direction *)
  Alcotest.(check (float 0.)) "-0.1 toward positive" (-.below)
    (ok_read_float ~mode:Rounding.Toward_positive "-0.1");
  (* exact values are unchanged in every mode *)
  List.iter
    (fun mode ->
      Alcotest.(check (float 0.))
        ("exact 0.5 " ^ Rounding.to_string mode)
        0.5
        (ok_read_float ~mode "0.5"))
    Rounding.all

let test_overflow () =
  Alcotest.(check value) "1e400 nearest" (Value.Inf false)
    (ok_read Format_spec.binary64 "1e400");
  Alcotest.(check value) "-1e400 nearest" (Value.Inf true)
    (ok_read Format_spec.binary64 "-1e400");
  Alcotest.(check (float 0.)) "1e400 toward zero saturates" Float.max_float
    (ok_read_float ~mode:Rounding.Toward_zero "1e400");
  Alcotest.(check (float 0.)) "1e400 toward negative saturates" Float.max_float
    (ok_read_float ~mode:Rounding.Toward_negative "1e400");
  Alcotest.(check (float 0.)) "-1e400 toward positive saturates"
    (-.Float.max_float)
    (ok_read_float ~mode:Rounding.Toward_positive "-1e400");
  Alcotest.(check (float 0.)) "1e400 toward positive overflows" Float.infinity
    (ok_read_float ~mode:Rounding.Toward_positive "1e400")

let test_underflow () =
  Alcotest.(check value) "1e-1000 nearest" (Value.Zero false)
    (ok_read Format_spec.binary64 "1e-1000");
  Alcotest.(check value) "-1e-1000 nearest" (Value.Zero true)
    (ok_read Format_spec.binary64 "-1e-1000");
  Alcotest.(check (float 0.)) "1e-1000 toward positive is min denormal"
    (Int64.float_of_bits 1L)
    (ok_read_float ~mode:Rounding.Toward_positive "1e-1000");
  Alcotest.(check (float 0.)) "1e-1000 toward zero is zero" 0.
    (ok_read_float ~mode:Rounding.Toward_zero "1e-1000");
  (* denormal reading *)
  Alcotest.(check value) "3e-324 is 2^-1074 territory"
    (Value.finite ~f:Nat.one ~e:(-1074) ())
    (ok_read Format_spec.binary64 "3e-324")

let test_binary16 () =
  let fmt = Format_spec.binary16 in
  Alcotest.(check value) "65504 max half"
    (Value.finite ~f:(Nat.of_int 2047) ~e:5 ())
    (ok_read fmt "65504");
  Alcotest.(check value) "65520 ties to inf" (Value.Inf false)
    (ok_read fmt "65520");
  Alcotest.(check value) "65519.99 rounds back to max"
    (Value.finite ~f:(Nat.of_int 2047) ~e:5 ())
    (ok_read fmt "65519.99");
  Alcotest.(check value) "1e9 toward zero saturates"
    (Value.finite ~f:(Nat.of_int 2047) ~e:5 ())
    (ok_read ~mode:Rounding.Toward_zero fmt "1e9");
  Alcotest.(check value) "0.1 in half precision"
    (Value.finite ~f:(Nat.of_int 1638) ~e:(-14) ())
    (ok_read fmt "0.1")

let test_read_ratio () =
  let fmt = Format_spec.binary64 in
  Alcotest.(check value) "1/3 reads like 0.333... string"
    (ok_read fmt "0.333333333333333333333333333333333333")
    (R.read_ratio fmt (Ratio.of_ints 1 3));
  Alcotest.(check value) "zero" (Value.Zero false) (R.read_ratio fmt Ratio.zero);
  Alcotest.(check value) "exact halves are exact"
    (Value.finite ~f:(Nat.pow_int 2 52) ~e:(-53) ())
    (R.read_ratio fmt Ratio.half)

let test_read_in_base () =
  let fmt = Format_spec.binary64 in
  let ok s base =
    match R.read_in_base ~base fmt s with
    | Ok v -> v
    | Error e -> Alcotest.failf "read_in_base %S: %s" s (Robust.Error.to_string e)
  in
  Alcotest.(check bool) "hex 0.1999...a is 0.1" true
    (Value.equal (ok "0.1999999999999a" 16) (ok "0.1" 10 |> fun v -> v));
  Alcotest.(check bool) "hex ff.f" true
    (Value.equal (ok "ff.f" 16) (ok "255.9375" 10));
  Alcotest.(check bool) "binary fraction" true
    (Value.equal (ok "0.101" 2) (ok "0.625" 10));
  Alcotest.(check bool) "caret exponent base 36" true
    (Value.equal (ok "z^2" 36) (ok "45360" 10));
  Alcotest.(check bool) "e is a digit in base 16" true
    (Value.equal (ok "e" 16) (ok "14" 10));
  Alcotest.(check bool) "e is an exponent in base 10" true
    (Value.equal (ok "1e2" 10) (ok "100" 10));
  Alcotest.(check bool) "hash reads as zero" true
    (Value.equal (ok "1.2##" 10) (ok "1.200" 10));
  Alcotest.(check bool) "negative" true
    (Value.equal (ok "-0.8" 16) (ok "-0.5" 10));
  List.iter
    (fun (s, base) ->
      match R.read_in_base ~base fmt s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "read_in_base %S base %d should fail" s base)
    [ ("", 10); ("z", 16); ("1..2", 10); ("1^", 36); ("^2", 36); ("1e5x", 10) ]

let test_hex_reader () =
  let ok ?mode s =
    match R.Hex.read_float ?mode s with
    | Ok x -> x
    | Error e -> Alcotest.failf "hex read %S: %s" s (Robust.Error.to_string e)
  in
  Alcotest.(check (float 0.)) "0x1p+0" 1.0 (ok "0x1p+0");
  Alcotest.(check (float 0.)) "0x1.8p+1" 3.0 (ok "0x1.8p+1");
  Alcotest.(check (float 0.)) "0.1 hex" 0.1 (ok "0x1.999999999999ap-4");
  Alcotest.(check (float 0.)) "denormal" 5e-324 (ok "0x0.0000000000001p-1022");
  Alcotest.(check (float 0.)) "negative" (-2.5) (ok "-0x1.4p+1");
  Alcotest.(check (float 0.)) "no exponent" 255.0 (ok "0xff");
  Alcotest.(check (float 0.)) "uppercase" 3.0 (ok "0X1.8P+1");
  (* correct rounding into a narrower format *)
  (match R.Hex.read Format_spec.binary16 "0x1.999999999999ap-4" with
  | Ok v ->
    Alcotest.(check value) "0.1 into binary16"
      (Value.finite ~f:(Nat.of_int 1638) ~e:(-14) ())
      v
  | Error e -> Alcotest.fail (Robust.Error.to_string e));
  List.iter
    (fun s ->
      match R.Hex.read_float s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hex %S should fail" s)
    [ ""; "0x"; "1.8p1"; "0x1.8q1"; "0x1p"; "0x1p+"; "0x1.8p1x" ]

(* The routing test bdprint and bdprintd share: a sign, then 0x/0X.
   Malformed rests ("0x", "-0x") still route to the hex reader, which
   names the problem. *)
let test_hex_is_literal () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) (Printf.sprintf "is_literal %S" s) want
        (R.Hex.is_literal s))
    [
      ("0x1p0", true);
      ("+0X1", true);
      ("-0x", true);
      ("0x", true);
      ("1e5", false);
      ("x0", false);
      ("", false);
    ];
  let inputs = [| "0x1p0"; "+0X1"; "-0x1.8p1"; "1e5"; "" |] in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Sys.opaque_identity (R.Hex.is_literal inputs.(i mod 5)))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "allocates nothing (%.0f words over 10000 calls)" words)
    true (words < 100.)

(* [print_hex] reads its text off the bits; it must match the host's
   [%h] byte for byte on every kind of finite double, either sign. *)
let test_print_hex_vs_host () =
  let check x =
    let ours = Dragon.Printer.print_hex x and host = Printf.sprintf "%h" x in
    if not (String.equal ours host) then
      Alcotest.failf "print_hex %Lx: %S, host %%h %S" (Int64.bits_of_float x)
        ours host
  in
  let both x =
    check x;
    check (-.x)
  in
  List.iter both
    [
      0.; Float.min_float (* smallest normal *);
      Int64.float_of_bits 1L (* smallest denormal *);
      Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL (* largest denormal *);
      Int64.float_of_bits 0x0008_0000_0000_0000L; Float.max_float; 1.; 0.1;
      Float.pi; 1e23; Float.epsilon;
    ];
  Alcotest.(check string)
    "negative zero" "-0x0p+0"
    (Dragon.Printer.print_hex (-0.));
  for p = -1074 to 1023 do
    both (Float.ldexp 1. p)
  done;
  let st = Random.State.make [| 0x4e; 16 |] in
  let n = ref 0 in
  while !n < 10_000 do
    let x = Int64.float_of_bits (Random.State.bits64 st) in
    if Float.is_finite x then begin
      incr n;
      check x
    end
  done

(* ------------------------------------------------------------------ *)
(* The fast reader: Lemire's product, the midpoint comparison, and
   agreement with the exact reader *)

let bits = Int64.bits_of_float

let fast_eq_exact s =
  match (R.Fast.read s, R.read_float s) with
  | Ok x, Ok y -> Int64.equal (bits x) (bits y)
  | Error e, Error f ->
    String.equal (Robust.Error.to_string e) (Robust.Error.to_string f)
  | _ -> false

let check_fast_eq_exact s =
  if not (fast_eq_exact s) then
    Alcotest.failf "Fast.read %S: %s, exact reader: %s" s
      (match R.Fast.read s with
      | Ok x -> Printf.sprintf "%h" x
      | Error e -> Robust.Error.to_string e)
      (match R.read_float s with
      | Ok x -> Printf.sprintf "%h" x
      | Error e -> Robust.Error.to_string e)

(* Exact ties written with a fraction have q in [-27, -1], where the
   product must use c(q) + 1: with c(q) it reads each of these one ulp
   off. *)
let test_product_ties () =
  let reads s want =
    check_fast_eq_exact s;
    Alcotest.(check (float 0.)) s want (Result.get_ok (R.Fast.read s))
  in
  reads "9007199254740995.0" 9007199254740996.;
  reads "9007199254740995.00" 9007199254740996.;
  reads "90071992547409950e-1" 9007199254740996.;
  reads "4503599627370497.5" 4503599627370498.;
  check_fast_eq_exact "130582517383569400.0";
  (* integer midpoints (2m+1)·2^(k-53) between the doubles of binade
     [2^k, 2^(k+1)), 53 <= k < 60, written as N.0 *)
  let st = Random.State.make [| 0x71e5 |] in
  for _ = 1 to 5000 do
    let k = 53 + Random.State.int st 7 in
    let m = (1 lsl 52) lor Random.State.full_int st (1 lsl 52) in
    check_fast_eq_exact (Printf.sprintf "%d.0" (((2 * m) + 1) lsl (k - 53)))
  done

let random_double st =
  let rec go () =
    let x = Int64.float_of_bits (Random.State.bits64 st) in
    if Float.is_finite x then x else go ()
  in
  go ()

(* 1 to 40 digits, an optional sign and radix point, and an exponent
   in [-350, 350] *)
let random_digit_string st =
  let n = 1 + Random.State.int st 40 in
  let dot = Random.State.int st (n + 2) in
  let b = Buffer.create 48 in
  if Random.State.bool st then Buffer.add_char b '-';
  for i = 0 to n - 1 do
    if i = dot then Buffer.add_char b '.';
    Buffer.add_char b (Char.chr (Char.code '0' + Random.State.int st 10))
  done;
  Buffer.add_string b (Printf.sprintf "e%d" (Random.State.int st 701 - 350));
  Buffer.contents b

(* Subnormal and smallest-normal midpoints (2m+1)·2^-1075 written out
   in full: 767 or 768 significant digits, the most a binary64 midpoint
   has.  Each comes with what it must read as, around the comparison's
   fold of every digit past the 768th into one sticky bit. *)
let fold_edges () =
  List.concat_map
    (fun m ->
      let lo = Int64.float_of_bits (Int64.of_int m)
      and hi = Int64.float_of_bits (Int64.of_int (m + 1)) in
      let tie = if m land 1 = 0 then lo else hi in
      let mid = Nat.mul (Nat.of_int ((2 * m) + 1)) (Nat.pow_int 5 1075) in
      let d = Nat.to_string mid in
      let n = String.length d in
      let zeros k = String.make k '0' in
      (* a final 1 at significant digit [at] > n *)
      let one_at at =
        Printf.sprintf "%s%s1e%d" d (zeros (at - n - 1)) (-1075 - (at - n))
      in
      [
        (Printf.sprintf "%se-1075" d, tie);
        (Printf.sprintf "%s%se-1125" d (zeros 50), tie);
        (one_at 769, hi);
        (one_at 64_000, hi);
        ( Printf.sprintf "%s%se-2075"
            (Nat.to_string (Nat.pred mid))
            (String.make 1000 '9'),
          lo );
        (Printf.sprintf "0.%s%s" (zeros (1075 - n)) d, tie);
        (Printf.sprintf "0.%s%s1" (zeros (1075 - n)) d, hi);
        (Printf.sprintf "%s%s1e-1076" (zeros 400) d, hi);
      ])
    [ 1 lsl 50; (1 lsl 52) - 3; (1 lsl 53) - 2 ]

let test_fast_differential () =
  List.iter
    (fun (s, want) ->
      check_fast_eq_exact s;
      let name = String.sub s 0 40 ^ "..." in
      Alcotest.(check (float 0.)) ("float_of_string " ^ name) want
        (float_of_string s);
      Alcotest.(check (float 0.)) ("Fast.read " ^ name) want
        (Result.get_ok (R.Fast.read s)))
    (fold_edges ());
  let st = Random.State.make [| 0xd1ff |] in
  for _ = 1 to 20_000 do
    let x = random_double st in
    check_fast_eq_exact (Printf.sprintf "%.17g" x);
    check_fast_eq_exact (Printf.sprintf "%.16e" x);
    check_fast_eq_exact (Dragon.Printer.print x);
    check_fast_eq_exact (random_digit_string st)
  done;
  Array.iter
    (fun x -> check_fast_eq_exact (Dragon.Printer.print x))
    (Workloads.Schryer.corpus ());
  List.iter check_fast_eq_exact Robust.Gen.nasty

(* Gc counter check, like [is_literal]'s: a read of up to 19 digits
   allocates its [Ok] result (a block and a boxed float, 4 words) and
   nothing else.  A torture read that reaches the midpoint comparison
   compares in the domain's workspaces, so both torture forms stay under
   32 words per read, and so does a 64,000-digit line. *)
let test_fast_allocation () =
  let st = Random.State.make [| 0xa110c |] in
  let human () =
    let int_part = Random.State.int st 10_000 in
    match Random.State.int st 5 with
    | 0 -> string_of_int int_part
    | places ->
      Printf.sprintf "%d.%0*d" int_part places
        (Random.State.int st (int_of_float (10. ** float_of_int places)))
  in
  (* after one warm-up pass *)
  let words_per_read inputs =
    let n = Array.length inputs in
    Array.iter (fun s -> ignore (Sys.opaque_identity (R.Fast.read s))) inputs;
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (R.Fast.read inputs.(i)))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.iter
    (fun (name, inputs) ->
      let words = words_per_read inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f words per read" name words)
        true
        (words <= 4. +. (16. /. float_of_int (Array.length inputs))))
    [
      ("%.17g", Array.init 10_000 (fun _ -> Printf.sprintf "%.17g" (random_double st)));
      ("shortest", Array.init 10_000 (fun _ -> Dragon.Printer.print (random_double st)));
      ("human", Array.init 10_000 (fun _ -> human ()));
    ];
  (* "0.<digits>e<k>": 17 to 25 digits, or the whole midpoint *)
  let torture = Workloads.Corpus.torture_reader_inputs ~seed:11 3000 in
  let digits s = String.index s 'e' - 2 in
  List.iter
    (fun (name, keep) ->
      let inputs =
        Array.of_list (List.filter keep (Array.to_list torture))
      in
      let words = words_per_read inputs in
      Alcotest.(check bool)
        (Printf.sprintf "torture, %s: %d reads, %.2f words per read" name
           (Array.length inputs) words)
        true (words < 32.))
    [
      ("17-25 digits", fun s -> digits s <= 25);
      ("full midpoints", fun s -> digits s > 25);
    ];
  let long, _ =
    List.find (fun (s, _) -> String.length s > 60_000) (fold_edges ())
  in
  let words = words_per_read [| long |] in
  Alcotest.(check bool)
    (Printf.sprintf "64,000-digit line: %.0f words" words)
    true (words <= 64.)

(* The midpoint comparison runs under the reader's guard: a fault in
   the bignum power or a budget too small for the comparison comes back
   as a structured error, as the bignum fallback's did. *)
let test_fast_guard () =
  let midpoint = "9007199254740993.0000000000000000001" in
  let torture =
    Array.fold_left
      (fun a s -> if String.length s > String.length a then s else a)
      "" (Workloads.Corpus.torture_reader_inputs ~seed:5 300)
  in
  Alcotest.(check (float 0.)) "straddling midpoint reads up" 9007199254740994.
    (Result.get_ok (R.Fast.read midpoint));
  List.iter
    (fun s ->
      Robust.Faults.with_fault "nat.pow" (fun () ->
          match R.Fast.read s with
          | Error (Robust.Error.Internal { where = "nat.pow"; _ }) -> ()
          | Error e ->
            Alcotest.failf "%S: expected nat.pow fault, got %s" s
              (Robust.Error.to_string e)
          | Ok _ -> Alcotest.failf "%S: armed nat.pow fault did not fire" s);
      Robust.Budget.with_budget
        { (Robust.Budget.get ()) with Robust.Budget.max_bignum_bits = 64 }
        (fun () ->
          match R.Fast.read s with
          | Error (Robust.Error.Budget { what = "bignum bits"; _ }) -> ()
          | Error e ->
            Alcotest.failf "%S: expected a bignum budget error, got %s" s
              (Robust.Error.to_string e)
          | Ok _ -> Alcotest.failf "%S: bignum budget ignored" s))
    [ midpoint; torture ]

(* The budget's input-length histogram sees each read once, whether the
   scanner admits the input or hands it to the exact parser. *)
let test_fast_length_observed_once () =
  let module M = Telemetry.Metrics in
  let hist =
    match
      List.find_opt
        (fun m -> (M.meta_of m).M.name = "bdprint_budget_input_length_bytes")
        (M.list_metrics ())
    with
    | Some (M.Histogram h) -> h
    | _ -> Alcotest.fail "no input-length histogram"
  in
  let count () =
    let _, _, n = M.histogram_state hist in
    n
  in
  let inputs =
    [ "0.1"; "-0"; "1_000"; "inf"; "NaN"; "bogus"; ""; "1e";
      "9007199254740993.0000000000000000001" ]
  in
  let was = M.enabled () in
  M.set_enabled true;
  let before = count () in
  List.iter (fun s -> ignore (R.Fast.read s)) inputs;
  let after = count () in
  M.set_enabled was;
  Alcotest.(check int) "one observation per read" (List.length inputs)
    (after - before)

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_decimal_string =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      let digits =
        string_size ~gen:(char_range '0' '9') (int_range 1 25)
      in
      map3
        (fun neg ds e ->
          Printf.sprintf "%s%se%d" (if neg then "-" else "") ds e)
        bool digits (int_range (-320) 320))

let arb_pos_double =
  QCheck.make ~print:string_of_float
    QCheck.Gen.(
      map
        (fun bits ->
          let x = Float.abs (Int64.float_of_bits bits) in
          if Float.is_nan x || x = Float.infinity then 1.5 else x)
        ui64)

let props =
  [
    qtest ~count:500 "agrees with libc strtod" arb_decimal_string (fun s ->
        let ours = ok_read_float s in
        let libc = float_of_string s in
        (Float.is_nan ours && Float.is_nan libc)
        || Int64.equal (Int64.bits_of_float ours) (Int64.bits_of_float libc));
    qtest "%.17g round-trips through the reader" arb_pos_double (fun x ->
        let s = Printf.sprintf "%.17g" x in
        Int64.equal
          (Int64.bits_of_float (ok_read_float s))
          (Int64.bits_of_float x));
    qtest "directed modes bracket nearest" arb_decimal_string (fun s ->
        let down = ok_read_float ~mode:Rounding.Toward_negative s in
        let up = ok_read_float ~mode:Rounding.Toward_positive s in
        let near = ok_read_float s in
        down <= near && near <= up
        && (down = up || up = Ieee.succ_float down));
    qtest "toward_zero shrinks magnitude" arb_decimal_string (fun s ->
        let tz = ok_read_float ~mode:Rounding.Toward_zero s in
        let near = ok_read_float s in
        Float.abs tz <= Float.abs near);
    qtest "exact decimals read exactly in every mode"
      QCheck.(pair arb_pos_double (QCheck.oneofl Rounding.all))
      (fun (x, mode) ->
        (* print the double's exact decimal expansion, then read it back *)
        match Ieee.decompose x with
        | Value.Zero _ -> true
        | Value.Finite v ->
          let digits, k =
            Oracle.Exact_decimal.exact_digits ~base:10 Format_spec.binary64 v
          in
          let s =
            Printf.sprintf "0.%se%d"
              (String.concat ""
                 (Array.to_list (Array.map string_of_int digits)))
              k
          in
          Float.equal (ok_read_float ~mode s) x
        | _ -> true);
    qtest ~count:500 "print_hex matches %h and reads back" arb_pos_double
      (fun x ->
        let ours = Dragon.Printer.print_hex x in
        let libc = Printf.sprintf "%h" x in
        String.equal ours libc
        &&
        match R.Hex.read_float ours with
        | Ok y -> Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float x)
        | Error _ -> false);
    qtest ~count:300 "hex reading = host hex float_of_string" arb_pos_double
      (fun x ->
        let s = Printf.sprintf "%h" x in
        match R.Hex.read_float s with
        | Ok y -> Float.equal y (float_of_string s)
        | Error _ -> false);
    qtest ~count:1000 "fast reader = exact reader" arb_decimal_string (fun s ->
        let fast =
          match R.Fast.read s with Ok x -> x | Error e -> Alcotest.fail (Robust.Error.to_string e)
        in
        let exact = ok_read_float s in
        Int64.equal (Int64.bits_of_float fast) (Int64.bits_of_float exact));
    qtest ~count:300 "fast reader = exact on shortest outputs" arb_pos_double
      (fun x ->
        (* shortest strings are the adversarial case: by construction they
           sit as close to the rounding boundary as any string that still
           converts to x *)
        let s = Dragon.Printer.print x in
        match R.Fast.read s with
        | Ok y -> Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float x)
        | Error e -> Alcotest.fail (Robust.Error.to_string e));
    qtest ~count:300 "printed base-b output reads back textually"
      QCheck.(pair arb_pos_double (QCheck.int_range 2 36))
      (fun (x, base) ->
        let v =
          match Ieee.decompose x with
          | Value.Finite v -> v
          | _ -> QCheck.assume_fail ()
        in
        List.for_all
          (fun notation ->
            let s =
              Dragon.Render.free ~notation ~base
                (Dragon.Free_format.convert ~base Format_spec.binary64 v)
            in
            match R.read_in_base ~base Format_spec.binary64 s with
            | Ok back -> Value.equal back (Value.Finite v)
            | Error _ -> false)
          [ Dragon.Render.Auto; Dragon.Render.Scientific ]);
  ]

(* ------------------------------------------------------------------ *)
(* Robustness: extreme exponents, structured errors, resource budgets,
   fault injection *)

let test_extreme_exponents () =
  let b64 = Format_spec.binary64 in
  (* astronomically scaled inputs must fast-reject to the correctly
     rounded extreme without ever constructing 10^|exponent| *)
  Alcotest.(check value) "1e999999999" (Value.Inf false)
    (ok_read b64 "1e999999999");
  Alcotest.(check value) "-1e999999999" (Value.Inf true)
    (ok_read b64 "-1e999999999");
  Alcotest.(check value) "1e-999999999" (Value.Zero false)
    (ok_read b64 "1e-999999999");
  Alcotest.(check value) "-1e-999999999" (Value.Zero true)
    (ok_read b64 "-1e-999999999");
  (* directed modes keep the same saturation semantics as moderate
     overflow/underflow *)
  Alcotest.(check (float 0.)) "extreme overflow toward zero saturates"
    Float.max_float
    (ok_read_float ~mode:Rounding.Toward_zero "1e999999999");
  Alcotest.(check (float 0.)) "extreme overflow toward negative saturates"
    Float.max_float
    (ok_read_float ~mode:Rounding.Toward_negative "1e999999999");
  Alcotest.(check (float 0.)) "extreme underflow toward positive is min denormal"
    (Int64.float_of_bits 1L)
    (ok_read_float ~mode:Rounding.Toward_positive "1e-999999999");
  Alcotest.(check (float 0.)) "extreme negative underflow toward zero"
    0.
    (ok_read_float ~mode:Rounding.Toward_zero "-1e-999999999" |> Float.abs);
  (* exponent digit strings beyond int range must clamp, not wrap *)
  Alcotest.(check value) "1e[30 nines]" (Value.Inf false)
    (ok_read b64 ("1e" ^ String.make 30 '9'));
  Alcotest.(check value) "1e-[30 nines]" (Value.Zero false)
    (ok_read b64 ("1e-" ^ String.make 30 '9'));
  (* huge written-out magnitudes, no exponent marker at all *)
  Alcotest.(check value) "1 followed by 10k zeros" (Value.Inf false)
    (ok_read b64 ("1" ^ String.make 10_000 '0'));
  Alcotest.(check value) "0.[10k zeros]1" (Value.Zero false)
    (ok_read b64 ("0." ^ String.make 10_000 '0' ^ "1"));
  (* zero mantissas never overflow, whatever the exponent says *)
  Alcotest.(check value) "0e999999999" (Value.Zero false)
    (ok_read b64 "0e999999999");
  Alcotest.(check value) "-0e-999999999" (Value.Zero true)
    (ok_read b64 "-0e-999999999")

let test_structured_errors () =
  let b64 = Format_spec.binary64 in
  let syntax s =
    match R.read b64 s with
    | Error (Robust.Error.Syntax _) -> ()
    | Error e ->
      Alcotest.failf "%S: expected syntax error, got %s" s
        (Robust.Error.to_string e)
    | Ok v -> Alcotest.failf "%S unexpectedly read as %s" s (Value.to_string v)
  in
  List.iter syntax
    [
      ""; " "; "\t"; "\n"; " 1.5"; "1.5 "; "abc"; "1..2"; "--1"; "+-1"; "1e+";
      "1e"; "e5"; "0x"; "+"; "."; "#"; "\xff\xfe\x00"; "1,5"; "1.2.3";
    ];
  (* inputs longer than the cap are rejected up front as budget errors *)
  (match R.read b64 (String.make 100_000 '1') with
  | Error (Robust.Error.Budget { what = "input length"; _ }) -> ()
  | Error e ->
    Alcotest.failf "expected input-length budget error, got %s"
      (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "100k-digit input unexpectedly accepted");
  (* a tighter ambient budget is honored *)
  Robust.Budget.with_budget
    { (Robust.Budget.get ()) with Robust.Budget.max_input_length = 8 }
    (fun () ->
      match R.read b64 "3.14159265358979" with
      | Error (Robust.Error.Budget _) -> ()
      | Error e -> Alcotest.fail (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "budget override ignored")

let test_special_value_roundtrips () =
  let b64 = Format_spec.binary64 in
  Alcotest.(check value) "nan reads" Value.Nan (ok_read b64 "nan");
  Alcotest.(check value) "NAN reads" Value.Nan (ok_read b64 "NAN");
  Alcotest.(check string) "nan prints" "nan" (Dragon.Printer.shortest Float.nan);
  (match Dragon.Printer.print_value b64 Value.Nan with
  | Ok s -> Alcotest.(check string) "nan through result api" "nan" s
  | Error e -> Alcotest.fail (Robust.Error.to_string e));
  Alcotest.(check value) "nan round-trips" Value.Nan
    (ok_read b64 (Dragon.Printer.shortest Float.nan));
  Alcotest.(check value) "-0.0 keeps sign" (Value.Zero true)
    (ok_read b64 "-0.0");
  Alcotest.(check string) "-0 free format" "-0" (Dragon.Printer.shortest (-0.));
  Alcotest.(check string) "-0 fixed format keeps sign" "-0"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Relative 3) (-0.));
  Alcotest.(check string) "-inf fixed format" "-inf"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Absolute 0)
       Float.neg_infinity)

let test_subnormal_boundaries () =
  (* smallest denormal of each format, and the rounding cliff at half of
     it: below half -> zero, above half -> the denormal *)
  Alcotest.(check value) "binary64 min denormal"
    (Value.finite ~f:Nat.one ~e:(-1074) ())
    (ok_read Format_spec.binary64 "4.9e-324");
  Alcotest.(check value) "binary64 below half min denormal"
    (Value.Zero false)
    (ok_read Format_spec.binary64 "2.4e-324");
  Alcotest.(check value) "binary64 above half min denormal"
    (Value.finite ~f:Nat.one ~e:(-1074) ())
    (ok_read Format_spec.binary64 "2.5e-324");
  Alcotest.(check value) "binary32 min denormal"
    (Value.finite ~f:Nat.one ~e:(-149) ())
    (ok_read Format_spec.binary32 "1.401298464324817e-45");
  Alcotest.(check value) "binary32 below half min denormal"
    (Value.Zero false)
    (ok_read Format_spec.binary32 "7e-46");
  Alcotest.(check value) "binary16 min denormal"
    (Value.finite ~f:Nat.one ~e:(-24) ())
    (ok_read Format_spec.binary16 "5.9604644775390625e-8");
  Alcotest.(check value) "binary16 below half min denormal"
    (Value.Zero false)
    (ok_read Format_spec.binary16 "2.9e-8");
  (* each min denormal round-trips through its own format's printer *)
  List.iter
    (fun (fmt, e) ->
      let v = Value.finite ~f:Nat.one ~e () in
      match Dragon.Printer.print_value fmt v with
      | Error err -> Alcotest.fail (Robust.Error.to_string err)
      | Ok s ->
        Alcotest.(check value)
          (Printf.sprintf "min denormal of e=%d round-trips via %s" e s)
          v (ok_read fmt s))
    [
      (Format_spec.binary64, -1074);
      (Format_spec.binary32, -149);
      (Format_spec.binary16, -24);
    ]

let test_fault_injection () =
  let b64 = Format_spec.binary64 in
  (* a failure injected deep in the bignum kernel surfaces as a
     structured Internal error, never as an exception *)
  Robust.Faults.with_fault "nat.pow" (fun () ->
      match R.read b64 "1e300" with
      | Error (Robust.Error.Internal { where = "nat.pow"; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected nat.pow fault, got %s"
          (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "armed nat.pow fault did not fire");
  Robust.Faults.with_fault "nat.divmod" (fun () ->
      match R.read b64 "0.1" with
      | Error (Robust.Error.Internal { where = "nat.divmod"; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected nat.divmod fault, got %s"
          (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "armed nat.divmod fault did not fire");
  (* ... and in the printer's scaling layer *)
  Robust.Faults.with_fault "scaling.scale" (fun () ->
      match
        Dragon.Printer.print_value b64 (Fp.Ieee.decompose 0.1)
      with
      | Error (Robust.Error.Internal { where = "scaling.scale"; _ }) -> ()
      | Error e ->
        Alcotest.failf "expected scaling.scale fault, got %s"
          (Robust.Error.to_string e)
      | Ok _ -> Alcotest.fail "armed scaling.scale fault did not fire");
  (* disarmed, everything works again *)
  Alcotest.(check (float 0.)) "recovered" 0.1 (ok_read_float "0.1")

let () =
  Alcotest.run "reader"
    [
      ( "parse",
        [
          Alcotest.test_case "number forms" `Quick test_parse_forms;
          Alcotest.test_case "specials" `Quick test_parse_specials;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "known doubles vs libc" `Quick test_known_doubles;
          Alcotest.test_case "1e23 unbiased tie" `Quick test_unbiased_tie_1e23;
          Alcotest.test_case "tie modes at midpoint" `Quick
            test_tie_modes_at_midpoint;
          Alcotest.test_case "directed modes" `Quick test_directed_modes;
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "underflow" `Quick test_underflow;
          Alcotest.test_case "binary16" `Quick test_binary16;
          Alcotest.test_case "read_ratio" `Quick test_read_ratio;
          Alcotest.test_case "read_in_base" `Quick test_read_in_base;
          Alcotest.test_case "hex literals" `Quick test_hex_reader;
          Alcotest.test_case "hex literal routing" `Quick test_hex_is_literal;
          Alcotest.test_case "print_hex matches host %h" `Quick
            test_print_hex_vs_host;
        ] );
      ( "fast",
        [
          Alcotest.test_case "ties the product must detect" `Quick
            test_product_ties;
          Alcotest.test_case "agrees with the exact reader" `Quick
            test_fast_differential;
          Alcotest.test_case "reads allocate only their result" `Quick
            test_fast_allocation;
          Alcotest.test_case "comparison runs under the guard" `Quick
            test_fast_guard;
          Alcotest.test_case "input length observed once" `Quick
            test_fast_length_observed_once;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "extreme exponents fast-reject" `Quick
            test_extreme_exponents;
          Alcotest.test_case "structured errors and budgets" `Quick
            test_structured_errors;
          Alcotest.test_case "special-value round-trips" `Quick
            test_special_value_roundtrips;
          Alcotest.test_case "subnormal boundaries" `Quick
            test_subnormal_boundaries;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
        ] );
      ("props", props);
    ]
