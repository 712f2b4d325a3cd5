(* Cross-module integration tests: rendering, the float-level API, wide
   and custom formats (binary80/binary128), and full print-read-print
   pipelines through our own reader. *)

module Nat = Bignum.Nat
module Ratio = Bignum.Ratio
open Fp
open Dragon

let qtest ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let b64 = Format_spec.binary64

(* ------------------------------------------------------------------ *)
(* Rendering *)

let test_render_free () =
  let render ?notation digits k =
    Render.free ?notation ~base:10 { Free_format.digits = Array.of_list digits; k }
  in
  Alcotest.(check string) "1.5" "1.5" (render [ 1; 5 ] 1);
  Alcotest.(check string) "0.15" "0.15" (render [ 1; 5 ] 0);
  Alcotest.(check string) "0.00015" "0.00015" (render [ 1; 5 ] (-3));
  Alcotest.(check string) "150.0" "150.0" (render [ 1; 5 ] 3);
  Alcotest.(check string) "scientific low" "1.5e-7" (render [ 1; 5 ] (-6));
  Alcotest.(check string) "positional edge low" "0.0000015"
    (render [ 1; 5 ] (-5));
  Alcotest.(check string) "scientific high" "1.5e22" (render [ 1; 5 ] 23);
  Alcotest.(check string) "single digit sci" "1e23" (render [ 1 ] 24);
  Alcotest.(check string) "forced scientific" "1.5e0"
    (render ~notation:Render.Scientific [ 1; 5 ] 1);
  Alcotest.(check string) "forced positional" "150000000000000000000000.0"
    (render ~notation:Render.Positional [ 1; 5 ] 24);
  Alcotest.(check string) "negative" "-2.5"
    (Render.free ~neg:true ~base:10 { Free_format.digits = [| 2; 5 |]; k = 1 });
  Alcotest.(check string) "base 36 letters" "z.z"
    (Render.free ~base:36 { Free_format.digits = [| 35; 35 |]; k = 1 });
  Alcotest.(check string) "specials" "0" (Render.zero ());
  Alcotest.(check string) "neg zero" "-0" (Render.zero ~neg:true ());
  Alcotest.(check string) "inf" "inf" (Render.infinity ());
  Alcotest.(check string) "nan" "nan" Render.nan

let test_render_fixed () =
  let mk digits k = { Fixed_format.digits = Array.of_list digits; k } in
  let d n = Fixed_format.Digit n and h = Fixed_format.Hash in
  Alcotest.(check string) "hash tail" "1.23##"
    (Render.fixed ~base:10 (mk [ d 1; d 2; d 3; h; h ] 1));
  Alcotest.(check string) "hash in integer part" "123#.#"
    (Render.fixed ~base:10 (mk [ d 1; d 2; d 3; h; h ] 4));
  Alcotest.(check string) "scientific with hash" "1.23##e5"
    (Render.fixed ~notation:Render.Scientific ~base:10
       (mk [ d 1; d 2; d 3; h; h ] 6))

(* The list-based layout that [Render] used before it laid text out
   into one [Bytes], kept as the oracle for the new one. *)
let oracle_layout ~notation ~neg ~k ~base chars =
  let n = List.length chars in
  let buf = Buffer.create (n + 8) in
  if neg then Buffer.add_char buf '-';
  let positional =
    match notation with
    | Render.Positional -> true
    | Render.Scientific -> false
    | Render.Auto -> k > -6 && k - n <= 21 && k <= 21
  in
  if positional then begin
    if k <= 0 then begin
      Buffer.add_string buf "0.";
      for _ = 1 to -k do
        Buffer.add_char buf '0'
      done;
      List.iter (Buffer.add_char buf) chars
    end
    else begin
      List.iteri
        (fun i c ->
          if i = k then Buffer.add_char buf '.';
          Buffer.add_char buf c)
        chars;
      for _ = n to k - 1 do
        Buffer.add_char buf '0'
      done;
      if k >= n then Buffer.add_string buf ".0"
    end
  end
  else begin
    (match chars with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
      Buffer.add_char buf first;
      if rest <> [] then begin
        Buffer.add_char buf '.';
        List.iter (Buffer.add_char buf) rest
      end);
    Buffer.add_char buf (if base <= 14 then 'e' else '^');
    Buffer.add_string buf (string_of_int (k - 1))
  end;
  Buffer.contents buf

(* Every base either side of the marker switch (14/15) and 36, every
   notation and sign, 0-24 digits (digit 35 among them in base 36), and
   k over -30..30 and the exponent widths' edges.  The grid holds the
   edges of [use_positional]: k = -5/-6, k - n = 21/22 and k = 21/22. *)
let test_render_layout_oracle () =
  let ks =
    List.init 61 (fun i -> i - 30)
    @ List.concat_map (fun k -> [ k; -k ]) [ 99; 100; 999; 1000; 100_000 ]
  in
  let chars_of digits =
    List.map (fun d -> "0123456789abcdefghijklmnopqrstuvwxyz".[d]) digits
  in
  let check name want got =
    if not (String.equal want got) then
      Alcotest.failf "%s: oracle %S, layout %S" name want got
  in
  List.iter
    (fun base ->
      List.iter
        (fun notation ->
          List.iter
            (fun neg ->
              for n = 0 to 24 do
                let digits =
                  List.init n (fun i -> abs ((base - 1 - (7 * i)) mod base))
                in
                let chars = chars_of digits in
                List.iter
                  (fun k ->
                    let name =
                      Printf.sprintf "base %d, %d digits, k = %d" base n k
                    in
                    check ("free " ^ name)
                      (oracle_layout ~notation ~neg ~k ~base chars)
                      (Render.free ~notation ~neg ~base
                         { Free_format.digits = Array.of_list digits; k });
                    (* the same digits followed by zero runs and # tails *)
                    List.iter
                      (fun (zeros, hashes) ->
                        let fixed =
                          List.map (fun d -> Fixed_format.Digit d) digits
                          @ List.init zeros (fun _ -> Fixed_format.Digit 0)
                          @ List.init hashes (fun _ -> Fixed_format.Hash)
                        in
                        let fchars =
                          chars @ List.init zeros (fun _ -> '0')
                          @ List.init hashes (fun _ -> '#')
                        in
                        check
                          (Printf.sprintf "fixed %s, %d zeros, %d marks" name
                             zeros hashes)
                          (oracle_layout ~notation ~neg ~k ~base fchars)
                          (Render.fixed ~notation ~neg ~base
                             { Fixed_format.digits = Array.of_list fixed; k }))
                      (if n mod 4 = 1 then [ (0, 1); (2, 0); (1, 3); (3, 30) ]
                       else []))
                  ks
              done)
            [ false; true ])
        [ Render.Auto; Render.Scientific; Render.Positional ])
    [ 2; 10; 14; 15; 16; 36 ];
  (* a count outside the source raises, whatever the notation and k *)
  List.iter
    (fun notation ->
      List.iter
        (fun (n, k) ->
          let src = Bytes.of_string "12" in
          match Render.layout ~notation ~neg:true ~k ~base:10 src n with
          | s -> Alcotest.failf "layout of %d chars at k = %d gave %S" n k s
          | exception Invalid_argument _ -> ())
        [ (-1, 0); (-1, 1); (-3, -2); (-1, 5); (3, 0); (3, 2); (3, 1); (3, 9) ])
    [ Render.Auto; Render.Scientific; Render.Positional ];
  (* digit 35 and the empty output in scientific notation *)
  Alcotest.(check string) "digit 35" "z.z^0"
    (Render.free ~notation:Render.Scientific ~base:36
       { Free_format.digits = [| 35; 35 |]; k = 1 });
  Alcotest.(check string) "no digits" "0e4"
    (Render.free ~notation:Render.Scientific ~base:10
       { Free_format.digits = [||]; k = 5 })

(* ------------------------------------------------------------------ *)
(* Float-level API *)

let test_print_exact () =
  Alcotest.(check string) "0.5 exact" "0.5" (Printer.print_exact 0.5);
  Alcotest.(check string) "3 exact" "3.0" (Printer.print_exact 3.);
  Alcotest.(check string) "0.1 exact (55 digits)"
    "0.1000000000000000055511151231257827021181583404541015625"
    (Printer.print_exact 0.1);
  Alcotest.(check string) "-0.25 exact" "-0.25" (Printer.print_exact (-0.25));
  Alcotest.(check bool) "min denormal has 751 digits" true
    (let s = Printer.print_exact ~notation:Render.Scientific 5e-324 in
     (* d.<750 digits>e-324 *)
     String.length s = 752 + String.length "e-324");
  Alcotest.(check string) "exact in base 2 is the mantissa"
    "0.101"
    (Printer.print_exact ~base:2 0.625);
  Alcotest.(check string) "specials" "inf" (Printer.print_exact Float.infinity)

let test_decimal_format () =
  (* base-10 format: reading a <=16-digit decimal is exact, and the
     shortest output is just the significand with zeros stripped *)
  let fmt = Format_spec.decimal64_like in
  (match Reader.read fmt "123.4500" with
  | Ok (Value.Finite v) ->
    Alcotest.(check string) "prints back minimally" "123.45"
      (Render.free ~base:10 (Free_format.convert fmt v))
  | _ -> Alcotest.fail "read failed");
  (match Reader.read fmt "1e-398" with
  | Ok (Value.Finite v) ->
    Alcotest.(check bool) "denormal decimal round-trips" true
      (Value.equal
         (Reader.read_ratio fmt (Free_format.to_ratio ~base:10 (Free_format.convert fmt v)))
         (Value.Finite v))
  | _ -> Alcotest.fail "read failed");
  (* 17 significant input digits must round to the 16 the format holds *)
  match Reader.read fmt "12345678901234567" with
  | Ok (Value.Finite v) ->
    Alcotest.(check int) "16 digits stored" 16
      (Array.length (Nat.to_base_digits ~base:10 v.Value.f));
    Alcotest.(check string) "rounded to p = 16" "1.234567890123457e16"
      (Render.free ~notation:Render.Scientific ~base:10
         (Free_format.convert fmt v))
  | _ -> Alcotest.fail "read failed"

let test_printer_api () =
  Alcotest.(check string) "shortest" "0.1" (Printer.shortest 0.1);
  Alcotest.(check string) "nan" "nan" (Printer.print Float.nan);
  Alcotest.(check string) "-inf" "-inf" (Printer.print Float.neg_infinity);
  Alcotest.(check string) "-0" "-0" (Printer.print (-0.));
  Alcotest.(check string) "fixed of zero" "0"
    (Printer.print_fixed (Fixed_format.Relative 5) 0.);
  Alcotest.(check string) "print_value binary32"
    "0.33333334"
    (match Reader.read Format_spec.binary32 "0.3333333333" with
    | Ok v -> Printer.print_value_exn Format_spec.binary32 v
    | Error e -> Alcotest.fail (Robust.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Wide and custom formats *)

let arb_finite_in (fmt : Format_spec.t) =
  let gen =
    QCheck.Gen.(
      let* denormal = QCheck.Gen.frequency [ (9, return false); (1, return true) ] in
      let* e = int_range fmt.emin fmt.emax in
      let* bits = list_size (return ((fmt.p / 60) + 1)) (int_bound max_int) in
      let f =
        List.fold_left
          (fun acc b -> Nat.add (Nat.shift_left acc 60) (Nat.of_int b))
          Nat.one bits
      in
      (* force exactly p digits (normalized) or a small denormal mantissa *)
      let f =
        if denormal then
          Nat.add Nat.one
            (snd (Nat.divmod f (Format_spec.min_normal_mantissa fmt)))
        else
          Nat.add (Format_spec.min_normal_mantissa fmt)
            (snd (Nat.divmod f (Format_spec.min_normal_mantissa fmt)))
      in
      let e = if Nat.compare f (Format_spec.min_normal_mantissa fmt) < 0 then fmt.emin else e in
      return { Value.neg = false; f; e })
  in
  QCheck.make ~print:(fun v -> Value.to_string (Value.Finite v)) gen

let wide_format_props ?(count = 15) fmt name =
  [
    qtest ~count
      (name ^ ": integer path = rational reference")
      (arb_finite_in fmt)
      (fun v ->
        Free_format.equal (Free_format.convert fmt v) (Reference.free fmt v));
    qtest ~count
      (name ^ ": output conditions hold")
      (arb_finite_in fmt)
      (fun v ->
        match Reference.check_output fmt v (Free_format.convert fmt v) with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_reportf "%s: %s" (Value.to_string (Value.Finite v)) e);
    qtest ~count
      (name ^ ": round-trips through the reader")
      (arb_finite_in fmt)
      (fun v ->
        let r = Free_format.convert fmt v in
        Value.equal
          (Reader.read_ratio fmt (Free_format.to_ratio ~base:10 r))
          (Value.Finite v));
    qtest ~count
      (name ^ ": all strategies agree")
      (arb_finite_in fmt)
      (fun v ->
        let results =
          List.map (fun strategy -> Free_format.convert ~strategy fmt v) Scaling.all
        in
        match results with
        | first :: rest -> List.for_all (Free_format.equal first) rest
        | [] -> false);
  ]

let test_binary128_shortest_bound () =
  (* 2^-16494, the smallest binary128 denormal, still prints briefly *)
  let v = { Value.neg = false; f = Nat.one; e = -16494 } in
  let r = Free_format.convert Format_spec.binary128 v in
  Alcotest.(check bool) "short denormal output" true
    (Array.length r.Free_format.digits <= 3);
  (* max finite binary128 round-trips *)
  let vmax =
    { Value.neg = false;
      f = Nat.pred (Format_spec.mantissa_limit Format_spec.binary128);
      e = 16271 }
  in
  let rmax = Free_format.convert Format_spec.binary128 vmax in
  Alcotest.(check bool) "max finite round-trips" true
    (Value.equal
       (Reader.read_ratio Format_spec.binary128
          (Free_format.to_ratio ~base:10 rmax))
       (Value.Finite vmax));
  (* binary128 shortest output never exceeds 36 digits *)
  Alcotest.(check bool) "max finite at most 36 digits" true
    (Array.length rmax.Free_format.digits <= 36)

(* ------------------------------------------------------------------ *)
(* Full pipelines through our own reader *)

let arb_double =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      map
        (fun bits ->
          let x = Int64.float_of_bits bits in
          if Float.is_nan x || Float.abs x = Float.infinity then 1.5 else x)
        ui64)

let pipeline_props =
  [
    qtest ~count:400 "print |> our reader = identity (binary64, all modes)"
      QCheck.(pair arb_double (QCheck.oneofl Rounding.all))
      (fun (x, mode) ->
        let s = Printer.print ~mode x in
        match Reader.read_float ~mode s with
        | Ok y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | Error _ -> false);
    qtest ~count:200 "print in base b |> read back via ratio"
      QCheck.(pair arb_double (QCheck.int_range 2 36))
      (fun (x, base) ->
        QCheck.assume (x <> 0.);
        match Ieee.decompose (Float.abs x) with
        | Value.Finite v ->
          let r = Free_format.convert ~base b64 v in
          Value.equal
            (Reader.read_ratio b64 (Free_format.to_ratio ~base r))
            (Value.Finite v)
        | _ -> true);
    qtest ~count:200 "print is idempotent (print (read (print x)) = print x)"
      arb_double
      (fun x ->
        let s = Printer.print x in
        match Reader.read_float s with
        | Ok y -> String.equal s (Printer.print y)
        | Error _ -> false);
    qtest ~count:200 "fixed 17 digits reads back (binary64)" arb_double
      (fun x ->
        QCheck.assume (x <> 0.);
        let s = Printer.print_fixed (Fixed_format.Relative 17) x in
        (* insignificant positions read as zero *)
        let s = String.map (fun c -> if c = '#' then '0' else c) s in
        match Reader.read_float s with
        | Ok y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | Error _ -> QCheck.Test.fail_reportf "unreadable %S" s);
    qtest ~count:100 "host printf %.17g agrees with naive fixed 17 read-back"
      arb_double
      (fun x ->
        QCheck.assume (x <> 0. && Float.is_finite x);
        let ours = Baselines.Naive_fixed.print ~ndigits:17 (Float.abs x) in
        float_of_string ours = Float.abs x);
  ]

let () =
  Alcotest.run "integration"
    [
      ( "render",
        [
          Alcotest.test_case "free" `Quick test_render_free;
          Alcotest.test_case "fixed" `Quick test_render_fixed;
          Alcotest.test_case "layout matches the list-based oracle" `Quick
            test_render_layout_oracle;
        ] );
      ( "printer-api",
        [
          Alcotest.test_case "floats" `Quick test_printer_api;
          Alcotest.test_case "print_exact" `Quick test_print_exact;
          Alcotest.test_case "decimal64-like format" `Quick test_decimal_format;
        ] );
      ( "binary128",
        Alcotest.test_case "extremes" `Quick test_binary128_shortest_bound
        :: wide_format_props Format_spec.binary128 "binary128" );
      ("binary80", wide_format_props Format_spec.binary80 "binary80");
      ( "ternary-wide",
        wide_format_props ~count:60
          (Format_spec.make ~name:"ternary-wide" ~b:3 ~p:40 ~emin:(-80)
             ~emax:80 ())
          "ternary p=40" );
      ("pipelines", pipeline_props);
    ]
