(* The table-driven fast path (lib/fastpath): the committed power-of-ten
   table re-derived entry by entry from exact Nat arithmetic, the
   128-bit product primitive cross-checked against Ext64.umul128 and
   Nat, uncertain-verdict behavior on hostile estimates, and the
   differential sweeps asserting byte equality between the table tier
   and the exact kernels (themselves differentially pinned to the pure
   reference by test_fuzz): free format over binary32 — stratified by
   default, every positive finite value under BDPRINT_EXHAUSTIVE32=1 —
   with its fallback rate capped at 5%, and fixed format over binary64
   samples and every positive binary16 value.  The table-tier side of
   each differential turns the gate on itself, so the suite keeps its
   meaning under BDPRINT_NO_FASTPATH=1. *)

module Nat = Bignum.Nat
module T = Fastpath.Pow10_table
module Ext64 = Baselines.Ext64
open Fp

let b32 = Format_spec.binary32
let b64 = Format_spec.binary64

(* ---------- table verification ---------- *)

(* Independent re-derivation of gamma(q) = floor(log2 10^q) - 127. *)
let gamma_ref q =
  if q >= 0 then Nat.bit_length (Nat.pow_int 10 q) - 1 - 127
  else -Nat.bit_length (Nat.pow_int 10 (-q)) - 127

let entry_nat q =
  let n = ref Nat.zero in
  for i = T.limbs_per_entry - 1 downto 0 do
    n :=
      Nat.add (Nat.shift_left !n 28)
        (Nat.of_int T.limbs.((T.limbs_per_entry * (q - T.q_min)) + i))
  done;
  !n

let test_table_matches_nat () =
  Alcotest.(check int) "span" 701 (T.q_max - T.q_min + 1);
  Alcotest.(check int)
    "limb array size"
    (T.limbs_per_entry * (T.q_max - T.q_min + 1))
    (Array.length T.limbs);
  let two_127 = Nat.shift_left Nat.one 127 in
  let two_128 = Nat.shift_left Nat.one 128 in
  for q = T.q_min to T.q_max do
    let gamma = T.exps.(q - T.q_min) in
    Alcotest.(check int) (Printf.sprintf "gamma(%d)" q) (gamma_ref q) gamma;
    let c = entry_nat q in
    if Nat.compare c two_127 < 0 || Nat.compare c two_128 >= 0 then
      Alcotest.failf "c(%d) not normalized to 128 bits" q;
    (* The underestimate invariant the kernel's one-sided error analysis
       rests on: c·2^gamma <= 10^q < (c+1)·2^gamma, checked exactly. *)
    if q >= 0 then begin
      let n = Nat.pow_int 10 q in
      let lo, hi =
        if gamma >= 0 then (Nat.shift_left c gamma, Nat.shift_left (Nat.succ c) gamma)
        else (c, Nat.succ c)
      in
      let n = if gamma >= 0 then n else Nat.shift_left n (-gamma) in
      if not (Nat.compare lo n <= 0 && Nat.compare n hi < 0) then
        Alcotest.failf "c(%d) is not floor(10^%d * 2^-gamma)" q q
    end
    else begin
      let d = Nat.pow_int 10 (-q) in
      let num = Nat.shift_left Nat.one (-gamma) in
      if
        not
          (Nat.compare (Nat.mul c d) num <= 0
          && Nat.compare num (Nat.mul (Nat.succ c) d) < 0)
      then Alcotest.failf "c(%d) is not floor(2^-gamma / 10^%d)" q (-q)
    end
  done

(* The reader's Lemire product uses c(q) + 1 for -27 <= q <= -1 and
   c(q) elsewhere: the table of Lemire's reference implementation, which
   Mushtak & Lemire's no-fallback proof covers.  Re-derive that table's
   construction for every entry the product reads, and read the extreme
   mantissas at every q through both readers. *)
let test_product_table () =
  let two_128 = Nat.shift_left Nat.one 128 in
  for q = -27 to -1 do
    (* 10^q·2^-gamma = 2^(q-gamma) / 5^-q is not an integer, so
       c(q) + 1 is its ceiling *)
    let gamma = T.exps.(q - T.q_min) in
    let c = entry_nat q in
    let quot, rem =
      Nat.divmod (Nat.shift_left Nat.one (q - gamma)) (Nat.pow_int 5 (-q))
    in
    if Nat.is_zero rem then Alcotest.failf "10^%d·2^-gamma is an integer" q;
    if not (Nat.equal c quot) then Alcotest.failf "c(%d) is not the floor" q;
    if Nat.compare (Nat.succ c) two_128 >= 0 then
      Alcotest.failf "c(%d) + 1 overflows 128 bits" q
  done;
  for q = 0 to 55 do
    (* 5^q < 2^128, so c(q) is 10^q·2^-gamma exactly (theta = 0): the
       product's tie rule for q <= 23 rests on it *)
    let gamma = T.exps.(q - T.q_min) in
    let p5 = Nat.pow_int 5 q in
    if Nat.compare p5 two_128 >= 0 then Alcotest.failf "5^%d >= 2^128" q;
    if not (Nat.equal (entry_nat q) (Nat.shift_left p5 (q - gamma))) then
      Alcotest.failf "c(%d) is not exact" q
  done;
  for q = -342 to -28 do
    (* the reference table: floor(2^b / 5^-q) + 1 with
       b = 2·ceil(log2 5^-q) + 128, truncated to its top 128 bits *)
    let p5 = Nat.pow_int 5 (-q) in
    let b = (2 * Nat.bit_length p5) + 128 in
    let c = Nat.succ (fst (Nat.divmod (Nat.shift_left Nat.one b) p5)) in
    let c = Nat.shift_right c (Nat.bit_length c - 128) in
    if not (Nat.equal (entry_nat q) c) then
      Alcotest.failf "c(%d) differs from the reference table" q
  done;
  for q = -342 to 308 do
    List.iter
      (fun w ->
        let s = Printf.sprintf "%se%d" w q in
        let read r =
          match r s with
          | Ok x -> Int64.bits_of_float x
          | Error e -> Alcotest.failf "%s: %s" s (Robust.Error.to_string e)
        in
        if not (Int64.equal (read Reader.Fast.read) (read Reader.read_float))
        then Alcotest.failf "%s: the fast and exact readers differ" s)
      [ "1"; "9999999999999999999" ]
  done

(* ---------- 128-bit product primitive ---------- *)

let nat_of_u64 = Nat.of_int64_unsigned

let test_umul128_vs_nat () =
  let st = Random.State.make [| 0x6bd; 128 |] in
  let check a b =
    let hi, lo = Ext64.umul128 a b in
    let p = Nat.mul (nat_of_u64 a) (nat_of_u64 b) in
    let hi_ref = Nat.shift_right p 64 in
    let lo_ref = Nat.sub p (Nat.shift_left hi_ref 64) in
    let eq got want =
      match Nat.to_int64_unsigned_opt want with
      | Some w -> Int64.equal got w
      | None -> false
    in
    if not (eq hi hi_ref && eq lo lo_ref) then
      Alcotest.failf "umul128 %Lx * %Lx disagrees with Nat" a b
  in
  check 0L 0L;
  check (-1L) (-1L);
  check Int64.min_int (-1L);
  check 0xFFFFFFFFL 0x100000001L;
  for _ = 1 to 2000 do
    check (Random.State.int64 st Int64.max_int |> Int64.mul 3L)
      (Random.State.int64 st Int64.max_int |> Int64.mul 5L)
  done

(* And the same product the kernel computes limbwise: f·c(q) recomputed
   via two umul128 calls (64x128) against the exact Nat product, for
   random mantissas against random table entries — cross-validating the
   shared primitive and the table in one pass. *)
let test_table_products () =
  let st = Random.State.make [| 0x6bd; 129 |] in
  for _ = 1 to 500 do
    let q = T.q_min + Random.State.int st (T.q_max - T.q_min + 1) in
    let f = 1 + Random.State.full_int st ((1 lsl 53) - 1) in
    let c = entry_nat q in
    let c_lo =
      Nat.to_int64_unsigned_opt
        (Nat.sub c (Nat.shift_left (Nat.shift_right c 64) 64))
      |> Option.get
    and c_hi = Nat.to_int64_unsigned_opt (Nat.shift_right c 64) |> Option.get in
    let f64 = Int64.of_int f in
    let h1, l1 = Ext64.umul128 f64 c_lo in
    let h2, l2 = Ext64.umul128 f64 c_hi in
    let combine =
      Nat.add
        (Nat.add (nat_of_u64 l1) (Nat.shift_left (nat_of_u64 h1) 64))
        (Nat.shift_left
           (Nat.add (nat_of_u64 l2) (Nat.shift_left (nat_of_u64 h2) 64))
           64)
    in
    if not (Nat.equal combine (Nat.mul (Nat.of_int f) c)) then
      Alcotest.failf "64x128 product mismatch at q=%d f=%d" q f
  done

(* ---------- uncertain verdicts on hostile inputs ---------- *)

let test_uncertain_verdicts () =
  let buf = Bytes.create Fastpath.max_digits in
  (* position requests the kernel does not attempt: no significant
     digits, or a position beyond its range *)
  let fixed ~relative ~pos =
    Fastpath.convert_fixed buf ~relative ~pos ~f:(1 lsl 52) ~e:(-52)
      ~mantissa_bits:53 ~narrow:true ~high_ok:true ~est:0
  in
  Alcotest.(check bool) "relative 0" true (fixed ~relative:true ~pos:0 < 0);
  Alcotest.(check bool)
    "position out of range" true
    (fixed ~relative:false ~pos:(-(1 lsl 20)) < 0);
  (* a position at or above the leading digit is the exact tier's
     single-digit case *)
  Alcotest.(check bool)
    "position above the value" true
    (fixed ~relative:false ~pos:2 < 0);
  (* estimate far outside the table *)
  Alcotest.(check bool)
    "est out of table" true
    (Fastpath.convert_shortest buf ~f:5 ~e:0 ~mantissa_bits:3 ~narrow:false
       ~high_ok:true ~est:400
    < 0);
  (* estimate inconsistent with the value: the frame check must refuse
     rather than emit digits *)
  Alcotest.(check bool)
    "est off by a mile" true
    (Fastpath.convert_shortest buf ~f:5 ~e:0 ~mantissa_bits:3 ~narrow:false
       ~high_ok:true ~est:25
    < 0);
  (* a mantissa lying about its bit length must be refused, not
     trusted: the same call with the truth is a hit *)
  let shortest bits =
    Fastpath.convert_shortest buf ~f:((1 lsl 52) + 1) ~e:0 ~mantissa_bits:bits
      ~narrow:false ~high_ok:false ~est:16
  in
  Alcotest.(check bool) "bad bit length" true (shortest 1 < 0);
  Alcotest.(check bool) "true bit length" true (shortest 53 >= 0)

(* ---------- monomorphized estimator agreement ---------- *)

(* The dispatcher uses [Scaling.fast_estimate_b10] (hoisted constants,
   no option) in place of [Scaling.estimate Fast_estimate ~base:10 ~b:2];
   byte-identical output depends on the two producing the same integer
   for every mantissa/exponent the fast path can see. *)
let test_fast_estimate_b10 () =
  let st = Random.State.make [| 0x7e57e57 |] in
  for _ = 1 to 20_000 do
    let f = 1 + Random.State.full_int st ((1 lsl 53) - 1) in
    let e = Random.State.int st 2400 - 1200 in
    let f_nat = Nat.of_int f in
    let reference =
      Dragon.Scaling.estimate Dragon.Scaling.Fast_estimate ~base:10 ~b:2
        ~f:f_nat ~e
      |> Option.get
    in
    let mono =
      Dragon.Scaling.fast_estimate_b10 ~bits:(Nat.bit_length f_nat) ~e
    in
    if mono <> reference then
      Alcotest.failf "fast_estimate_b10 f=%d e=%d: %d <> %d" f e mono
        reference
  done

(* ---------- differential sweeps ---------- *)

let with_gate on f =
  let was = Fastpath.enabled () in
  Fastpath.set_enabled on;
  Fun.protect ~finally:(fun () -> Fastpath.set_enabled was) f

(* The table-tier side also turns the force-pure switch off for its
   scope: [Free_format.table_tier] stays closed while it is on, so under
   BDPRINT_FORCE_PURE=1 this side would print through the pure
   reference instead. *)
let with_fastpath f =
  let pure = Dragon.Generate.force_pure () in
  Dragon.Generate.set_force_pure false;
  Fun.protect
    ~finally:(fun () -> Dragon.Generate.set_force_pure pure)
    (fun () -> with_gate true f)
let without_fastpath f = with_gate false f

let print_both fmt value =
  let fast =
    with_fastpath (fun () ->
        match Dragon.Printer.print_value fmt value with
        | Ok s -> s
        | Error e -> "error: " ^ Robust.Error.to_string e)
  in
  let exact =
    without_fastpath (fun () ->
        match Dragon.Printer.print_value fmt value with
        | Ok s -> s
        | Error e -> "error: " ^ Robust.Error.to_string e)
  in
  (fast, exact)

(* Every value the free-format pipeline sees dispatches through the
   fast path first, so printing with the gate on vs off is exactly the
   fastpath-vs-exact-kernels differential (and test_fuzz pins the exact
   kernels to the pure reference). *)
let check_value fmt bits value =
  let fast, exact = print_both fmt value in
  if not (String.equal fast exact) then
    Alcotest.failf "fastpath/exact mismatch on bits %Lx: %S vs %S" bits fast
      exact

(* binary32: every positive finite value is 1..0x7F7FFFFF.  The default
   stratified pass strides with a prime step so every binade is
   sampled; BDPRINT_EXHAUSTIVE32=1 sweeps all ~2^31 values (about four
   hours on one core: the exact-kernel side dominates), and with
   BDPRINT_EXHAUSTIVE32_SHARD=i/n only its i-th of n interleaved shards
   (0 <= i < n): every n-th value from 1 + i, so each shard crosses
   every binade. *)
let binary32_sweep_plan () =
  if Sys.getenv_opt "BDPRINT_EXHAUSTIVE32" <> Some "1" then ("stratified", 1, 10007)
  else
    match Sys.getenv_opt "BDPRINT_EXHAUSTIVE32_SHARD" with
    | None -> ("exhaustive", 1, 1)
    | Some s -> (
      match Scanf.sscanf_opt s "%d/%d%!" (fun i n -> (i, n)) with
      | Some (i, n) when 0 <= i && i < n ->
        (Printf.sprintf "exhaustive, shard %d/%d" i n, 1 + i, n)
      | _ ->
        Alcotest.failf "BDPRINT_EXHAUSTIVE32_SHARD=%S: want i/n, 0 <= i < n" s)

let test_binary32_sweep () =
  let plan, first, step = binary32_sweep_plan () in
  let was_metrics = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  let hits0 = Fastpath.hit_count () and fb0 = Fastpath.fallback_count () in
  let tested = ref 0 in
  let bits = ref first in
  while !bits <= 0x7F7FFFFF do
    let value = Ieee.decompose_bits Ieee.spec_binary32 (Int64.of_int !bits) in
    (match value with
    | Value.Finite _ ->
      incr tested;
      check_value b32 (Int64.of_int !bits) value
    | _ -> ());
    bits := !bits + step
  done;
  let hits = Fastpath.hit_count () - hits0
  and fallbacks = Fastpath.fallback_count () - fb0 in
  Telemetry.Metrics.set_enabled was_metrics;
  Printf.printf
    "binary32 sweep (%s): %d values, %d fastpath hits, %d fallbacks (%.3f%%)\n%!"
    plan !tested hits fallbacks
    (100.0 *. float_of_int fallbacks /. float_of_int (max 1 (hits + fallbacks)));
  Alcotest.(check bool) "swept a real population" true (!tested > 100_000);
  (* the dispatch gate was live: every sampled value was attempted *)
  Alcotest.(check bool)
    "attempts cover the sweep" true
    (hits + fallbacks >= !tested);
  Alcotest.(check bool)
    "fallback rate below 5%" true
    (float_of_int fallbacks /. float_of_int (max 1 (hits + fallbacks)) < 0.05)

(* The classic binary64 boundary values. *)
let boundaries =
  [
    0x0000000000000001L (* min subnormal *);
    0x000FFFFFFFFFFFFFL (* max subnormal *);
    0x0010000000000000L (* min normal *);
    0x7FEFFFFFFFFFFFFFL (* max finite *);
    0x3FF0000000000000L (* 1.0 *);
    0x4340000000000000L (* 2^53 *);
    0x4330000000000001L (* 2^52 + 1 *);
    0x3FB999999999999AL (* 0.1 *);
    0x44B52D02C7E14AF6L (* 1e23-adjacent *);
    0x44B52D02C7E14AF7L;
  ]

(* binary64 spot sweep: random payloads plus the boundary values, fast
   path vs exact kernels. *)
let test_binary64_random () =
  let st = Random.State.make [| 0x6bd; 64 |] in
  List.iter
    (fun bits -> check_value b64 bits (Ieee.decompose (Int64.float_of_bits bits)))
    boundaries;
  let n = ref 0 in
  while !n < 20_000 do
    let bits =
      Int64.logand (Random.State.int64 st Int64.max_int) 0x7FFF_FFFF_FFFF_FFFFL
    in
    match Ieee.decompose (Int64.float_of_bits bits) with
    | Value.Finite _ as v ->
      incr n;
      check_value b64 bits v
    | _ -> ()
  done

(* The fast path must honor output-digit budgets with the reference
   cadence: a one-digit budget turns every multi-digit conversion into
   the same structured error on both sides of the gate. *)
let test_budget_parity () =
  let tight =
    { (Robust.Budget.get ()) with Robust.Budget.max_output_digits = 2 }
  in
  Robust.Budget.with_budget tight (fun () ->
      let v = Ieee.decompose 3.14159 in
      let fast, exact = print_both b64 v in
      Alcotest.(check string) "same budget outcome" exact fast;
      Alcotest.(check bool)
        "budget actually fired" true
        (String.length fast >= 6 && String.sub fast 0 6 = "error:"))

(* The kernel reads the digit cap once per attempt and compares it on
   every digit: a cap one short of a 17-digit output fails at the 17th
   digit, with the exact tier's error, on both sides of the gate. *)
let test_cap_parity () =
  let cap16 =
    { (Robust.Budget.get ()) with Robust.Budget.max_output_digits = 16 }
  in
  let got side name = function
    | Error (Robust.Error.Budget { what = "output digits"; got; limit = 16 }) ->
      got
    | Error e ->
      Alcotest.failf "%s, %s: %s" name side (Robust.Error.to_string e)
    | Ok s -> Alcotest.failf "%s, %s: printed %s" name side s
  in
  let x = 0.1 +. 0.2 in
  let calls =
    [
      ("print_value", fun () -> Dragon.Printer.print_value b64 (Ieee.decompose x));
      ("print", fun () -> Robust.Error.catch (fun () -> Dragon.Printer.print x));
      ( "print_fixed (Relative 17)",
        fun () ->
          Robust.Error.catch (fun () ->
              Dragon.Printer.print_fixed (Dragon.Fixed_format.Relative 17) x) );
    ]
  in
  Robust.Budget.with_budget cap16 (fun () ->
      List.iter
        (fun (side, run) ->
          List.iter
            (fun (name, f) ->
              Alcotest.(check int)
                (name ^ ", " ^ side) 17
                (got side name (run f)))
            calls)
        [ ("table tier", with_fastpath); ("exact tier", without_fastpath) ])

(* The deadline is checked once per attempt: an expired one fails a
   conversion on both sides of the gate. *)
let test_deadline_parity () =
  let what = function
    | Error (Robust.Error.Budget { what; _ }) -> what
    | Error e -> Robust.Error.to_string e
    | Ok s -> "printed " ^ s
  in
  let calls =
    [
      ("print_value", fun () -> Dragon.Printer.print_value b64 (Ieee.decompose 0.3));
      ( "print_fixed",
        fun () ->
          Robust.Error.catch (fun () ->
              Dragon.Printer.print_fixed (Dragon.Fixed_format.Relative 17) 0.3) );
    ]
  in
  List.iter
    (fun (side, run) ->
      List.iter
        (fun (name, f) ->
          Alcotest.(check string)
            (name ^ ", " ^ side) Robust.Budget.deadline_what
            (what (run (fun () -> Robust.Budget.with_deadline ~ms:0 f))))
        calls)
    [ ("table tier", with_fastpath); ("exact tier", without_fastpath) ]

(* A table-tier hit goes from the mantissa to one string: averaged over
   the hits among Schryer values, [print] and [print_fixed] allocate
   their result and the boxed float argument, and [print_value] adds
   only [Error.catch]'s closure and its [Ok] to its result. *)
let test_hit_allocation () =
  with_fastpath (fun () ->
      let xs = Workloads.Schryer.corpus ~size:20_000 () in
      let hits count f =
        let was = Telemetry.Metrics.enabled () in
        Telemetry.Metrics.set_enabled true;
        let hit x =
          let h0 = count () in
          ignore (f x);
          count () > h0
        in
        let r = List.filter hit (Array.to_list xs) in
        Telemetry.Metrics.set_enabled was;
        Array.of_list r
      in
      let relative17 = Dragon.Fixed_format.Relative 17 in
      let free_hits = hits Fastpath.hit_count Dragon.Printer.print in
      let fixed_hits =
        hits Fastpath.fixed_hit_count (Dragon.Printer.print_fixed relative17)
      in
      let values = Array.map Ieee.decompose free_hits in
      let per_call name inputs limit f =
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
        let w0 = Gc.minor_words () in
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
        let n = Array.length inputs in
        let words = (Gc.minor_words () -. w0) /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.1f words per hit over %d hits, at most %d" name
             words n limit)
          true
          (n > 10_000 && words <= float_of_int limit)
      in
      per_call "print" free_hits 8 (fun x -> Dragon.Printer.print x);
      per_call "print_fixed (Relative 17)" fixed_hits 8 (fun x ->
          Dragon.Printer.print_fixed relative17 x);
      per_call "print_value" values 20 (fun v ->
          Dragon.Printer.print_value b64 v))

(* ---------- fixed format: the position rule ---------- *)

let request_name = function
  | Dragon.Fixed_format.Relative i -> Printf.sprintf "Relative %d" i
  | Dragon.Fixed_format.Absolute j -> Printf.sprintf "Absolute %d" j

let fixed_string ?tie fmt (v : Value.finite) req =
  match Dragon.Fixed_format.convert ?tie fmt v req with
  | Ok t -> Dragon.Render.fixed ~neg:v.neg ~base:10 t
  | Error e -> "error: " ^ Robust.Error.to_string e

let fixed_both ?tie fmt v req =
  ( with_fastpath (fun () -> fixed_string ?tie fmt v req),
    without_fastpath (fun () -> fixed_string ?tie fmt v req) )

let check_fixed fmt v req =
  let fast, exact = fixed_both fmt v req in
  if not (String.equal fast exact) then
    Alcotest.failf "fixed %s of %s: table tier %S, exact tier %S"
      (request_name req)
      (Value.to_string (Value.Finite v))
      fast exact

(* Fixed-format hits and fallbacks recorded while [f] runs. *)
let fixed_counts f =
  let was = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  let h0 = Fastpath.fixed_hit_count () and f0 = Fastpath.fixed_fallback_count () in
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled was) f;
  (Fastpath.fixed_hit_count () - h0, Fastpath.fixed_fallback_count () - f0)

let finite x =
  match Ieee.decompose x with
  | Value.Finite v -> v
  | _ -> Alcotest.failf "not finite: %h" x

(* The binary64 sample: the boundary list, random finite payloads, and
   short "human" decimals such as 0.1 or 3.75 (n / 10^p is the double
   nearest the decimal, both operands being exact), one human decimal
   to four random payloads as in the benchmark's value mix.  Decimals
   that a double holds exactly (integers, 3.75) end on a remainder of
   exactly zero, which the kernel's integer test certifies. *)
let binary64_sample =
  lazy
    (let st = Random.State.make [| 0x6bd; 17 |] in
     let random =
       List.init 2000 (fun _ ->
           let rec draw () =
             let bits =
               Int64.logand (Random.State.int64 st Int64.max_int)
                 0x7FFF_FFFF_FFFF_FFFFL
             in
             let x = Int64.float_of_bits bits in
             if Float.is_finite x && x > 0. then x else draw ()
           in
           draw ())
     and human =
       List.init 500 (fun _ ->
           float_of_int (1 + Random.State.int st 9_999_999)
           /. (10. ** float_of_int (Random.State.int st 5)))
     in
     let tagged kind = List.map (fun x -> (kind, finite x)) in
     tagged "boundaries" (List.map Int64.float_of_bits boundaries)
     @ tagged "random" random @ tagged "human" human)

let test_fixed_binary64 () =
  let sample = Lazy.force binary64_sample in
  let hits, fallbacks =
    fixed_counts (fun () ->
        List.iter
          (fun (_, v) ->
            List.iter
              (fun i -> check_fixed b64 v (Dragon.Fixed_format.Relative i))
              [ 1; 2; 6; 15; 16; 17; 20 ];
            let k = (Dragon.Free_format.convert b64 v).Dragon.Free_format.k in
            List.iter
              (fun d -> check_fixed b64 v (Dragon.Fixed_format.Absolute (k - d)))
              [ 1; 6; 17; 25 ])
          sample)
  in
  let rate (h, f) = float_of_int f /. float_of_int (max 1 (h + f)) in
  let r17 kind =
    fixed_counts (fun () ->
        List.iter
          (fun (k, v) ->
            if kind = "all" || k = kind then
              ignore
                (with_fastpath (fun () ->
                     fixed_string b64 v (Dragon.Fixed_format.Relative 17))))
          sample)
  in
  Printf.printf "binary64 fixed: %d values, %d hits, %d fallbacks (%.3f%%)\n"
    (List.length sample) hits fallbacks
    (100. *. rate (hits, fallbacks));
  List.iter
    (fun kind ->
      Printf.printf "  Relative 17 fallback, %s: %.3f%%\n" kind
        (100. *. rate (r17 kind)))
    [ "random"; "human"; "all" ];
  Alcotest.(check bool) "the tier was attempted" true (hits > 0);
  Alcotest.(check bool) "Relative 17 falls back below 10%" true
    (rate (r17 "all") < 0.10)

(* Every positive finite binary16 value, where a half quantum dwarfs the
   float gap at most positions: the widening and the relative retry are
   exercised on nearly every request. *)
let test_fixed_binary16 () =
  let b16 = Format_spec.binary16 in
  let requests =
    List.map (fun i -> Dragon.Fixed_format.Relative i) [ 1; 2; 3; 4; 5; 12 ]
    @ List.map (fun j -> Dragon.Fixed_format.Absolute j) [ -8; -2; 0; 3 ]
  in
  let hits, fallbacks =
    fixed_counts (fun () ->
        for bits = 1 to 0x7BFF do
          match Ieee.decompose_bits Ieee.spec_binary16 (Int64.of_int bits) with
          | Value.Finite v -> List.iter (check_fixed b16 v) requests
          | _ -> Alcotest.failf "binary16 %x is not finite" bits
        done)
  in
  Printf.printf "binary16 fixed: %d hits, %d fallbacks\n%!" hits fallbacks;
  Alcotest.(check bool) "the tier was attempted" true (hits > 0)

(* The kernel's arguments for a binary64 datum, as [Printer] reads
   them from its bits. *)
let kernel_args x =
  let b = Int64.to_int (Int64.bits_of_float x) in
  let ef = (b lsr 52) land 0x7ff and frac = b land ((1 lsl 52) - 1) in
  let f = if ef = 0 then frac else frac lor (1 lsl 52) in
  let e = max ef 1 - 1075 in
  let rec bits f = if f = 0 then 0 else 1 + bits (f lsr 1) in
  (f, e, bits f)

(* Every estimate from the reference's minus three to plus three and
   every lying bit length, on random normals and on exact decimals: the
   kernel may refuse, but what it answers is [Dragon.Reference]'s
   answer.  A bit length other than f's is always refused.  The normals
   stay between 2^-85 and 2^73, where the rational reference is quick.
   The first value is one whose estimate, one too high, would scale a
   leading zero into the digits (f = 7681248000391443, e = -137). *)
let test_hostile_arguments () =
  let st = Random.State.make [| 0x6bd; 0xe57 |] in
  let buf = Bytes.create Fastpath.max_digits in
  let normal () =
    Float.ldexp
      (float_of_int ((1 lsl 52) + Random.State.full_int st (1 lsl 52)))
      (Random.State.int st 158 - 137)
  and exact () =
    match Random.State.int st 3 with
    | 0 -> float_of_int (1 + Random.State.int st 200_000)
    | 1 ->
      Float.ldexp
        (float_of_int (1 + Random.State.int st 4095))
        (-Random.State.int st 13)
    | _ ->
      float_of_int (1 + Random.State.int st 99)
      *. (10. ** float_of_int (Random.State.int st 23))
  in
  let values =
    Float.ldexp 7681248000391443. (-137)
    :: List.init 4_000 (fun i -> if i mod 4 = 0 then normal () else exact ())
  in
  let hits = ref 0 in
  List.iter
    (fun x ->
      let f, e, bits = kernel_args x in
      let est0 = Dragon.Scaling.fast_estimate_b10 ~bits ~e in
      let v = finite x in
      let narrow = f = 1 lsl 52 && e > -1074 and high_ok = f land 1 = 0 in
      let free = lazy (Dragon.Reference.free b64 v) in
      let fixed = Hashtbl.create 4 in
      let reference req =
        match Hashtbl.find_opt fixed req with
        | Some t -> t
        | None ->
          let t = Dragon.Reference.fixed b64 v req in
          Hashtbl.add fixed req t;
          t
      in
      let fail what est lf got want =
        Alcotest.failf "%h (f=%d e=%d) %s, est %+d, %d bits: %s, want %s" x f e
          what (est - est0) lf got want
      in
      let shortest est lf =
        let r =
          Fastpath.convert_shortest buf ~f ~e ~mantissa_bits:lf ~narrow ~high_ok
            ~est
        in
        if r >= 0 then begin
          incr hits;
          let want = Lazy.force free and n = Fastpath.digit_count r in
          let got = Array.init n (fun i -> Char.code (Bytes.get buf i) - 48) in
          let got = { Dragon.Free_format.digits = got; k = Fastpath.point r } in
          if not (Dragon.Free_format.equal got want) then
            fail "shortest" est lf
              (Format.asprintf "%a" Dragon.Free_format.pp got)
              (Format.asprintf "%a" Dragon.Free_format.pp want)
        end;
        r
      in
      let position est lf req =
        let relative, pos =
          match req with
          | Dragon.Fixed_format.Relative i -> (true, i)
          | Dragon.Fixed_format.Absolute j -> (false, j)
        in
        let r =
          Fastpath.convert_fixed buf ~relative ~pos ~f ~e ~mantissa_bits:lf
            ~narrow ~high_ok ~est
        in
        if r >= 0 then begin
          incr hits;
          let n = Fastpath.digit_count r and k = Fastpath.point r in
          let z = Fastpath.zero_count r in
          let total = if relative then pos else k - pos in
          let digits =
            Array.init total (fun i ->
                if i < n then
                  Dragon.Fixed_format.Digit (Char.code (Bytes.get buf i) - 48)
                else if i < n + z then Dragon.Fixed_format.Digit 0
                else Dragon.Fixed_format.Hash)
          in
          let got = { Dragon.Fixed_format.digits; k } and want = reference req in
          if not (Dragon.Fixed_format.equal got want) then
            fail (request_name req) est lf
              (Format.asprintf "%a" Dragon.Fixed_format.pp got)
              (Format.asprintf "%a" Dragon.Fixed_format.pp want)
        end;
        r
      in
      let requests =
        Dragon.Fixed_format.[ Relative 3; Relative 17; Absolute (est0 - 6) ]
      in
      for d = -3 to 3 do
        ignore (shortest (est0 + d) bits);
        List.iter (fun req -> ignore (position (est0 + d) bits req)) requests
      done;
      List.iter
        (fun lf ->
          if lf <> bits then begin
            if shortest est0 lf >= 0 then
              fail "shortest" est0 lf "an answer" "a refusal";
            List.iter
              (fun req ->
                if position est0 lf req >= 0 then
                  fail (request_name req) est0 lf "an answer" "a refusal")
              requests
          end)
        [ -3; 0; 1; bits - 1; bits + 1; 53; 54; 63 ])
    values;
  Printf.printf "hostile arguments: %d hits on %d values\n" !hits
    (List.length values);
  Alcotest.(check bool) "the sweep hit" true (!hits > 4_000)

(* ---------- exact decimals ---------- *)

(* Doubles that are short exact decimals: every integer from 1 to
   200,000, n/2^j for 0 < n < 4096 and 0 < j <= 12, m·10^p for
   0 < m < 100 and p <= 22 (the double nearest, once 5^p·m passes
   2^53), and 2^k and 3·2^k for -100 <= k < 100; 251,817 values,
   repeats included.  At the digit where such a value's output ends,
   v·10^(n-k) is an integer: the remainder is exactly zero, which the
   truncated frame alone cannot certify. *)
let exact_decimals =
  lazy
    (let ints = Array.init 200_000 (fun i -> float_of_int (i + 1))
     and halves =
       Array.init (4095 * 12) (fun i ->
           Float.ldexp (float_of_int ((i / 12) + 1)) (-((i mod 12) + 1)))
     and tens =
       Array.init (99 * 23) (fun i ->
           float_of_int ((i / 23) + 1) *. (10. ** float_of_int (i mod 23)))
     and twos =
       Array.init 400 (fun i ->
           Float.ldexp (if i mod 2 = 0 then 1. else 3.) ((i / 2) - 100))
     in
     Array.concat [ ints; halves; tens; twos ])

let exact_requests =
  Dragon.Fixed_format.(
    List.map (fun i -> Relative i) [ 1; 2; 3; 6; 15; 16; 17; 20 ]
    @ List.map (fun j -> Absolute j) [ -8; -3; -1; 0; 2 ])

(* Free-format hits and fallbacks recorded while [f] runs. *)
let free_counts f =
  let was = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled true;
  let h0 = Fastpath.hit_count () and f0 = Fastpath.fallback_count () in
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled was) f;
  (Fastpath.hit_count () - h0, Fastpath.fallback_count () - f0)

let print_request req x =
  match req with
  | None -> Dragon.Printer.print x
  | Some req -> Dragon.Printer.print_fixed req x

let check_exact req x =
  let fast = with_fastpath (fun () -> print_request req x)
  and exact = without_fastpath (fun () -> print_request req x) in
  if not (String.equal fast exact) then
    Alcotest.failf "%h, %s: table tier %S, exact tier %S" x
      (match req with None -> "shortest" | Some r -> request_name r)
      fast exact

(* The table tier answers exact decimals in shortest form with the
   exact tier's bytes; the values it still hands back are range-end
   ties such as 1e23, and their number is exact. *)
let test_exact_shortest () =
  let values = Lazy.force exact_decimals in
  Alcotest.(check int) "the set" 251_817 (Array.length values);
  let hits, fallbacks =
    free_counts (fun () -> Array.iter (check_exact None) values)
  in
  Printf.printf "exact decimals, shortest: %d hits, %d fallbacks\n" hits
    fallbacks;
  Alcotest.(check int) "shortest fallbacks" 37 fallbacks

(* The same under the position rule, over every [stride]th value of the
   set: significant zeros after the digits, then [#] marks, where the
   17-step error budget allows. *)
let test_exact_fixed ~stride ~fallbacks () =
  let values = Lazy.force exact_decimals in
  let counts =
    List.map
      (fun req ->
        let _, fallbacks =
          fixed_counts (fun () ->
              Array.iteri
                (fun i x -> if i mod stride = 0 then check_exact (Some req) x)
                values)
        in
        Printf.printf "  %s: %d fallbacks\n" (request_name req) fallbacks;
        fallbacks)
      exact_requests
  in
  Alcotest.(check (list int)) "fallbacks by request" fallbacks counts

(* Exact decimals are hits.  What still falls back is a range-end tie:
   the shortest forms of 1e23 and 5e22 lie exactly on the high end of
   their rounding ranges, and at Relative 17 the # mark after 2^53's
   last digit holds only because m⁺ is exactly one unit.  2^53's
   shortest form is a hit: a zero remainder settles the last digit,
   whatever m⁺ is. *)
let test_range_end_ties () =
  let outcome req x =
    let count = match req with None -> free_counts | Some _ -> fixed_counts in
    match count (fun () -> ignore (with_fastpath (fun () -> print_request req x))) with
    | 1, 0 -> "hit"
    | 0, 1 -> "fallback"
    | h, f -> Printf.sprintf "%d hits, %d fallbacks" h f
  in
  List.iter
    (fun (x, req, want) ->
      let name = match req with None -> "shortest" | Some r -> request_name r in
      Alcotest.(check string) (Printf.sprintf "%h, %s" x name) want (outcome req x))
    Dragon.Fixed_format.
      [
        (3.75, None, "hit");
        (1234., None, "hit");
        (0.5, None, "hit");
        (0x1p53, None, "hit");
        (1e23, None, "fallback");
        (5e22, None, "fallback");
        (1e23, Some (Relative 17), "fallback");
        (0x1p53, Some (Relative 17), "fallback");
      ]

(* Outputs of the exact tier before the table tier existed, which both
   tiers must still produce. *)
let test_fixed_goldens () =
  let open Dragon.Fixed_format in
  List.iter
    (fun (x, req, want) ->
      let fast, exact = fixed_both b64 (finite x) req in
      let name = Printf.sprintf "%h at %s" x (request_name req) in
      Alcotest.(check string) (name ^ ", table tier") want fast;
      Alcotest.(check string) (name ^ ", exact tier") want exact)
    [
      (0.1, Relative 17, "0.10000000000000000");
      (5e-324, Relative 17, "5.################e-324");
      (9.96, Relative 2, "10.0");
      (Float.pi, Relative 6, "3.14159");
      (Float.pi, Absolute (-4), "3.1416");
      (1. /. 3., Relative 20, "0.33333333333333330###");
      (1e23, Relative 17, "1.0000000000000000e23");
      (100., Absolute (-20), "100.000000000000000#####");
    ]

(* Hits and fallbacks where the position rule does something the
   shortest rule never does. *)
let test_fixed_dispatch () =
  let open Dragon.Fixed_format in
  let hit name x req =
    let counts =
      fixed_counts (fun () ->
          ignore (with_fastpath (fun () -> fixed_string b64 (finite x) req)))
    in
    Alcotest.(check (pair int int)) (name ^ " is a hit") (1, 0) counts
  in
  hit "pi at Relative 6 (widened range)" Float.pi (Relative 6);
  hit "0.1 at Relative 17 (zero tail)" 0.1 (Relative 17);
  hit "9.96 at Relative 2 (k moves)" 9.96 (Relative 2);
  hit "3.75 at Relative 17 (a zero remainder)" 3.75 (Relative 17);
  hit "1234 at Absolute -3 (a zero remainder)" 1234. (Absolute (-3));
  (* 0.125 sits exactly between 0.12 and 0.13: the tie is never
     certifiable, and the exact tier honors ~tie *)
  List.iter
    (fun (tie, want) ->
      let output = ref "" in
      let counts =
        fixed_counts (fun () ->
            output :=
              with_fastpath (fun () ->
                  fixed_string ~tie b64 (finite 0.125) (Relative 2)))
      in
      Alcotest.(check (pair int int)) "the 0.125 tie falls back" (0, 1) counts;
      Alcotest.(check string) "the tie strategy decides" want !output)
    [
      (Dragon.Generate.Closer_up, "0.13");
      (Dragon.Generate.Closer_down, "0.12");
      (Dragon.Generate.Closer_even, "0.12");
    ]

(* Output-digit budgets decide fixed requests identically on both
   sides of the gate, errors included. *)
let test_fixed_budget_parity () =
  let errors = ref 0 and outputs = ref 0 in
  let values =
    List.map
      (fun x ->
        let v = finite x in
        (x, v, (Dragon.Free_format.convert b64 v).Dragon.Free_format.k))
      [ Float.pi; 0.1; 9.96; 5e-324; 1e23 ]
  in
  List.iter
    (fun cap ->
      let budget =
        { (Robust.Budget.get ()) with Robust.Budget.max_output_digits = cap }
      in
      Robust.Budget.with_budget budget (fun () ->
          List.iter
            (fun (x, v, k) ->
              List.iter
                (fun req ->
                  let fast, exact = fixed_both b64 v req in
                  Alcotest.(check string)
                    (Printf.sprintf "%h at %s, %d-digit budget" x
                       (request_name req) cap)
                    exact fast;
                  if String.length fast >= 6 && String.sub fast 0 6 = "error:"
                  then incr errors
                  else incr outputs)
                Dragon.Fixed_format.
                  [
                    Relative 1; Relative 2; Relative 17; Absolute (k - 1);
                    Absolute (k - 3); Absolute (k - 17);
                  ])
            values))
    [ 1; 2; 3; 17 ];
  Alcotest.(check bool) "budgets fired" true (!errors > 0);
  Alcotest.(check bool) "and admitted" true (!outputs > 0)

let () =
  Alcotest.run "fastpath"
    [
      ( "table",
        [
          Alcotest.test_case "every entry matches exact Nat" `Quick
            test_table_matches_nat;
          Alcotest.test_case "the reader's product table" `Quick
            test_product_table;
          Alcotest.test_case "umul128 vs Nat" `Quick test_umul128_vs_nat;
          Alcotest.test_case "64x128 table products" `Quick test_table_products;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "uncertain on hostile estimates" `Quick
            test_uncertain_verdicts;
          Alcotest.test_case "output-digit budget parity" `Quick
            test_budget_parity;
          Alcotest.test_case "a cap of 16 fails at digit 17" `Quick
            test_cap_parity;
          Alcotest.test_case "expired deadline on both sides" `Quick
            test_deadline_parity;
          Alcotest.test_case "a hit allocates only its result" `Quick
            test_hit_allocation;
          Alcotest.test_case "monomorphized estimator agreement" `Quick
            test_fast_estimate_b10;
          Alcotest.test_case "hostile estimates and bit lengths" `Quick
            test_hostile_arguments;
        ] );
      ( "differential",
        [
          Alcotest.test_case "binary32 sweep byte-identical" `Slow
            test_binary32_sweep;
          Alcotest.test_case "binary64 random + boundaries" `Slow
            test_binary64_random;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "goldens from the exact tier" `Quick
            test_fixed_goldens;
          Alcotest.test_case "hits and tie fallbacks" `Quick
            test_fixed_dispatch;
          Alcotest.test_case "output-digit budget parity" `Quick
            test_fixed_budget_parity;
          Alcotest.test_case "binary64 sample byte-identical" `Slow
            test_fixed_binary64;
          Alcotest.test_case "every binary16 value byte-identical" `Slow
            test_fixed_binary16;
        ] );
      ( "exact decimals",
        [
          Alcotest.test_case "range-end ties still fall back" `Quick
            test_range_end_ties;
          Alcotest.test_case "shortest form, the whole set" `Quick
            test_exact_shortest;
          Alcotest.test_case "fixed format, every 29th value" `Quick
            (test_exact_fixed ~stride:29
               ~fallbacks:[ 14; 43; 195; 201; 0; 0; 0; 1478; 136; 142; 158; 286; 1112 ]);
          Alcotest.test_case "fixed format, the whole set" `Slow
            (test_exact_fixed ~stride:1
               ~fallbacks:
                 [ 413; 1263; 5630; 5868; 4; 11; 47; 42902; 3996; 4212; 4616;
                   8261; 32288 ]);
        ] );
    ]
