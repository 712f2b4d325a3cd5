(* Differential fuzz harness for the hardened conversion pipeline.

   Bounded by default to 10_000 random inputs (override with FUZZ_ITERS,
   reproduce a run with FUZZ_SEED) plus the full deterministic corpus:
   [Robust.Gen.nasty] and every line of [test/corpus/*].  Per input it
   checks

   - totality: no exception escapes [Reader.read], [Reader.Fast.read] or
     [Dragon.Printer.print_value], for binary64 and binary16;
   - round-trip: any successfully read value prints and reads back
     [Value.equal];
   - differential: on well-formed moderate inputs the fast reader, the
     exact reader and the host [strtod] agree bit for bit;
   - fixed format: output never sits more than half an output quantum
     from the exact value;
   - fault tolerance: with each injection point armed, the pipeline
     still returns results instead of throwing. *)

module R = Reader
module Value = Fp.Value
module Format_spec = Fp.Format_spec
module Ratio = Bignum.Ratio
module Gen = Robust.Gen

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try max 1 (int_of_string s) with _ -> default)
  | None -> default

let iters = env_int "FUZZ_ITERS" 10_000
let seed = env_int "FUZZ_SEED" 0x5eed
let b64 = Format_spec.binary64
let b16 = Format_spec.binary16

let short s = if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

let no_raise what input f =
  try f ()
  with exn ->
    Alcotest.failf "%s raised %s on %S" what (Printexc.to_string exn)
      (short input)

(* The core totality + round-trip obligation for one input string. *)
let check_one fmt input =
  ignore (no_raise "Fast.read" input (fun () -> R.Fast.read input));
  match no_raise "read" input (fun () -> R.read fmt input) with
  | Error _ -> ()
  | Ok v -> (
    match
      no_raise "print_value" input (fun () ->
          Dragon.Printer.print_value fmt v)
    with
    | Error e ->
      Alcotest.failf "printing the value of %S failed: %s" (short input)
        (Robust.Error.to_string e)
    | Ok printed -> (
      match no_raise "re-read" printed (fun () -> R.read fmt printed) with
      | Ok v' ->
        if not (Value.equal v v') then
          Alcotest.failf "round-trip mismatch: %S prints as %S which reads as %s"
            (short input) printed (Value.to_string v')
      | Error e ->
        Alcotest.failf "shortest output %S of %S does not read back: %s"
          printed (short input) (Robust.Error.to_string e)))

let test_random_totality () =
  let st = Random.State.make [| seed |] in
  for _ = 1 to iters do
    let input = Gen.any st in
    check_one b64 input;
    check_one b16 input
  done

(* Well-formed moderate inputs: the two readers and the host strtod are
   three independent implementations of the same function. *)
let test_plain_differential () =
  let st = Random.State.make [| seed; 1 |] in
  let bits = Int64.bits_of_float in
  for _ = 1 to iters do
    let input = Gen.plain st in
    let exact =
      match R.read_float input with
      | Ok x -> x
      | Error e ->
        Alcotest.failf "exact reader rejected plain input %S: %s" input
          (Robust.Error.to_string e)
    in
    (match R.Fast.read input with
    | Ok fast ->
      if not (Int64.equal (bits fast) (bits exact)) then
        Alcotest.failf "fast/exact mismatch on %S: %h vs %h" input fast exact
    | Error e ->
      Alcotest.failf "fast reader rejected plain input %S: %s" input
        (Robust.Error.to_string e));
    match float_of_string_opt input with
    | Some host when not (Int64.equal (bits host) (bits exact)) ->
      Alcotest.failf "host strtod disagrees on %S: %h vs our %h" input host
        exact
    | _ -> ()
  done

let test_corpus () =
  let corpus_lines =
    if Sys.file_exists "corpus" && Sys.is_directory "corpus" then
      Sys.readdir "corpus" |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun f ->
             let ic = open_in (Filename.concat "corpus" f) in
             let lines = ref [] in
             (try
                while true do
                  lines := input_line ic :: !lines
                done
              with End_of_file -> ());
             close_in ic;
             List.rev !lines)
    else []
  in
  let inputs = Gen.nasty @ corpus_lines in
  Alcotest.(check bool)
    "corpus present" true
    (List.length corpus_lines > 0);
  List.iter
    (fun input ->
      check_one b64 input;
      check_one b16 input)
    inputs

(* Random positive doubles through the fixed-format converter: whatever
   the request, the denoted output must sit within half an output
   quantum of the exact value (reading # as 0, the quantum of the last
   emitted position). *)
let test_fixed_half_quantum () =
  let st = Random.State.make [| seed; 2 |] in
  let count = max 200 (iters / 10) in
  let done_ = ref 0 in
  while !done_ < count do
    let payload =
      Int64.logand (Random.State.int64 st Int64.max_int)
        0x7FFF_FFFF_FFFF_FFFFL
    in
    let x = Int64.float_of_bits payload in
    match Fp.Ieee.decompose x with
    | Value.Finite v ->
      incr done_;
      let req =
        if Random.State.bool st then
          Dragon.Fixed_format.Relative (1 + Random.State.int st 17)
        else Dragon.Fixed_format.Absolute (Random.State.int st 40 - 20)
      in
      (match Dragon.Fixed_format.convert b64 v req with
      | Error e ->
        Alcotest.failf "fixed convert failed on %h: %s" x
          (Robust.Error.to_string e)
      | Ok t ->
        let exact = Value.to_ratio b64 { v with neg = false } in
        let denoted = Dragon.Fixed_format.to_ratio ~base:10 t in
        let j = t.Dragon.Fixed_format.k - Array.length t.Dragon.Fixed_format.digits in
        (* Correct to half the requested quantum — except where the
           float's own gap dominates and positions turn to #, where one
           ulp is the honest bound. *)
        let half_quantum = Ratio.mul Ratio.half (Ratio.pow (Ratio.of_int 10) j) in
        let ulp = Ratio.pow (Ratio.of_int 2) v.Value.e in
        let bound = Ratio.max half_quantum ulp in
        let dist = Ratio.abs (Ratio.sub exact denoted) in
        if Ratio.compare dist bound > 0 then
          Alcotest.failf "fixed output of %h (request %s) off by > half quantum"
            x
            (match req with
            | Dragon.Fixed_format.Relative i -> Printf.sprintf "Relative %d" i
            | Dragon.Fixed_format.Absolute j -> Printf.sprintf "Absolute %d" j))
    | _ -> () (* inf/nan payloads: skip, not counted *)
  done

(* The exact tier's in-place digit loop (the Scratch workspace kernels)
   must be byte-identical to the pure-Nat reference: print every
   corpus/nasty line and a random batch through both, for free format
   and fixed format, and compare the strings.  The fast and kernel
   sides turn the force-pure switch off for their scope, so under
   BDPRINT_FORCE_PURE=1 they still run the table tier and the kernels
   instead of the pure reference. *)
let with_force_pure on f =
  let was = Dragon.Generate.force_pure () in
  Dragon.Generate.set_force_pure on;
  Fun.protect ~finally:(fun () -> Dragon.Generate.set_force_pure was) f

let with_pure f = with_force_pure true f
let without_pure f = with_force_pure false f

let print_opt fmt input =
  match R.read fmt input with
  | Error _ -> None
  | Ok v -> (
    match Dragon.Printer.print_value fmt v with
    | Ok s -> Some s
    | Error e ->
      Alcotest.failf "print_value failed on %S: %s" (short input)
        (Robust.Error.to_string e))

let without_fastpath f =
  let was = Dragon.Printer.fastpath_enabled () in
  Dragon.Printer.set_fastpath_enabled false;
  Fun.protect ~finally:(fun () -> Dragon.Printer.set_fastpath_enabled was) f

(* Three-way agreement: the default dispatch (table-driven fast path
   with exact fallback), the exact kernels alone (fast path off, so the
   Scratch loop keeps its own differential coverage), and the pure-Nat
   reference. *)
let check_paths_agree fmt input =
  let fast = without_pure (fun () -> print_opt fmt input) in
  let kernel =
    without_pure (fun () -> without_fastpath (fun () -> print_opt fmt input))
  in
  let pure = with_pure (fun () -> print_opt fmt input) in
  let str o = Option.value o ~default:"<unread>" in
  if kernel <> pure then
    Alcotest.failf "scratch/pure mismatch on %S: %s vs %s" (short input)
      (str kernel) (str pure);
  if fast <> pure then
    Alcotest.failf "fastpath/pure mismatch on %S: %s vs %s" (short input)
      (str fast) (str pure)

let test_scratch_pure_differential () =
  without_pure (fun () ->
      Alcotest.(check bool) "force_pure off" false
        (Dragon.Generate.force_pure ()));
  let corpus_lines =
    if Sys.file_exists "corpus" && Sys.is_directory "corpus" then
      Sys.readdir "corpus" |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun f ->
             let ic = open_in (Filename.concat "corpus" f) in
             let lines = ref [] in
             (try
                while true do
                  lines := input_line ic :: !lines
                done
              with End_of_file -> ());
             close_in ic;
             List.rev !lines)
    else []
  in
  List.iter
    (fun input ->
      check_paths_agree b64 input;
      check_paths_agree b16 input)
    (Gen.nasty @ corpus_lines);
  let st = Random.State.make [| seed; 4 |] in
  for _ = 1 to max 500 (iters / 4) do
    check_paths_agree b64 (Gen.any st)
  done;
  (* fixed format through both paths on random finite doubles *)
  let st = Random.State.make [| seed; 5 |] in
  let done_ = ref 0 in
  while !done_ < 500 do
    let payload =
      Int64.logand (Random.State.int64 st Int64.max_int)
        0x7FFF_FFFF_FFFF_FFFFL
    in
    match Fp.Ieee.decompose (Int64.float_of_bits payload) with
    | Value.Finite v ->
      incr done_;
      let req =
        if Random.State.bool st then
          Dragon.Fixed_format.Relative (1 + Random.State.int st 17)
        else Dragon.Fixed_format.Absolute (Random.State.int st 40 - 20)
      in
      let fast =
        without_pure (fun () -> Dragon.Fixed_format.convert b64 v req)
      in
      let kernel =
        without_pure (fun () ->
            without_fastpath (fun () -> Dragon.Fixed_format.convert b64 v req))
      in
      let pure =
        with_pure (fun () -> Dragon.Fixed_format.convert b64 v req)
      in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> Dragon.Fixed_format.equal a b
        | Error _, Error _ -> true
        | _ -> false
      in
      if not (same kernel pure) then
        Alcotest.failf "fixed-format scratch/pure mismatch on %h"
          (Int64.float_of_bits payload);
      if not (same fast pure) then
        Alcotest.failf "fixed-format fastpath/pure mismatch on %h"
          (Int64.float_of_bits payload)
    | _ -> ()
  done;
  (* Off the decimal nearest-even path: base 2, base 36, a directed mode
     and the iterative scaling strategy, on every positive binary16 value
     and on binary64 values near 1 (|e| <= 64), whose loop states mostly
     fit one or two limbs; and the position rule on the even integers
     just above 2^53.  The kernel (table tier off) must give the pure
     reference's bytes or its error. *)
  let outcome = function
    | Ok s -> Ok s
    | Error e -> Error (Robust.Error.to_string e)
  in
  let kernel f = without_pure (fun () -> without_fastpath f) in
  let b16_values =
    List.init 0x7bff (fun i ->
        Fp.Ieee.decompose_bits Fp.Ieee.spec_binary16 (Int64.of_int (i + 1)))
  in
  let st = Random.State.make [| seed; 11 |] in
  let b64_values =
    List.init 2000 (fun _ ->
        let biased = 1075 - 64 + Random.State.int st 129 in
        let fraction = Random.State.int64 st 0x10_0000_0000_0000L in
        let bits = Int64.(logor (shift_left (of_int biased) 52) fraction) in
        Fp.Ieee.decompose (Int64.float_of_bits bits))
  in
  let settings =
    [
      ("base 2", fun fmt v -> Dragon.Printer.print_value ~base:2 fmt v);
      ("base 36", fun fmt v -> Dragon.Printer.print_value ~base:36 fmt v);
      ( "toward negative",
        fun fmt v ->
          Dragon.Printer.print_value ~mode:Fp.Rounding.Toward_negative fmt v );
      ( "iterative",
        fun fmt v ->
          Dragon.Printer.print_value ~strategy:Dragon.Scaling.Iterative fmt v
      );
    ]
  in
  List.iter
    (fun (name, print) ->
      List.iter
        (fun (fmt, values) ->
          List.iter
            (fun v ->
              let k = kernel (fun () -> outcome (print fmt v)) in
              let p = with_pure (fun () -> outcome (print fmt v)) in
              if k <> p then
                Alcotest.failf "%s: scratch/pure mismatch on %s" name
                  (Value.to_string v))
            values)
        [ (b16, b16_values); (b64, b64_values) ])
    settings;
  for i = 0 to 300 do
    let x = 0x1p53 +. float_of_int (2 * i) in
    match Fp.Ieee.decompose x with
    | Value.Finite v ->
      let req = Dragon.Fixed_format.Relative 17 in
      let k = kernel (fun () -> Dragon.Fixed_format.convert b64 v req) in
      let p = with_pure (fun () -> Dragon.Fixed_format.convert b64 v req) in
      let same =
        match (k, p) with
        | Ok a, Ok b -> Dragon.Fixed_format.equal a b
        | Error a, Error b ->
          Robust.Error.to_string a = Robust.Error.to_string b
        | _ -> false
      in
      if not same then
        Alcotest.failf "Relative 17: scratch/pure mismatch on %.17g" x
    | _ -> Alcotest.failf "%.17g is not finite" x
  done

(* Free and fixed format both dispatch through the table tier first,
   and every tier's output is byte-identical by construction, so fixed
   format (relative and absolute requests) and the %e/%f/%g renderings
   must be bit-for-bit invariant under the dispatch gate — printed with
   the fast path enabled and disabled, every format agrees (and both
   formats additionally agree with the pure reference via the
   differential above). *)
let test_fastpath_format_invariance () =
  let st = Random.State.make [| seed; 9 |] in
  let done_ = ref 0 in
  while !done_ < 400 do
    let payload =
      Int64.logand (Random.State.int64 st Int64.max_int) 0x7FFF_FFFF_FFFF_FFFFL
    in
    let x = Int64.float_of_bits payload in
    match Fp.Ieee.decompose x with
    | Value.Finite v ->
      incr done_;
      let precision = Random.State.int st 18 in
      let check what f =
        let fast = f () in
        let slow = without_fastpath f in
        if fast <> slow then
          Alcotest.failf "%s differs under fastpath gate on %h: %S vs %S" what
            x fast slow
      in
      check "%e" (fun () -> Dragon.Cformat.e ~precision x);
      check "%f" (fun () -> Dragon.Cformat.f ~precision x);
      check "%g" (fun () -> Dragon.Cformat.g ~precision x);
      let relative = Dragon.Fixed_format.Relative (1 + Random.State.int st 17)
      and absolute =
        Dragon.Fixed_format.Absolute
          ((Dragon.Free_format.convert b64 v).Dragon.Free_format.k
          - Random.State.int st 26)
      in
      List.iter
        (fun req ->
          let fixed () =
            match Dragon.Fixed_format.convert b64 v req with
            | Ok r -> Dragon.Render.fixed ~neg:v.Fp.Value.neg ~base:10 r
            | Error e -> "error: " ^ Robust.Error.to_string e
          in
          let fast = fixed () and slow = without_fastpath fixed in
          if fast <> slow then
            Alcotest.failf "fixed format differs under fastpath gate on %h" x)
        [ relative; absolute ]
    | _ -> ()
  done

(* The kernel/pure differential must hold under injected faults too.
   Both digit-loop substrates share their fault points — [run_scratch]
   trips "nat.divmod" exactly where the pure path's [Nat.divmod] does,
   and the scaling stage is common — so with a point armed
   deterministically (probability 1) the two paths must produce the
   same outcome *including the structured error*.  With a
   transient probability the per-call draws are independent, so the
   obligations weaken to totality plus byte-equality whenever both
   paths happen to succeed. *)
let conv fmt input =
  match no_raise "read under faults" input (fun () -> R.read fmt input) with
  | Error e -> Error (Robust.Error.to_string e)
  | Ok v -> (
    match
      no_raise "print under faults" input (fun () ->
          Dragon.Printer.print_value fmt v)
    with
    | Ok s -> Ok s
    | Error e -> Error (Robust.Error.to_string e))

let check_faulty ~deterministic fmt input =
  let kernel = without_pure (fun () -> conv fmt input) in
  let pure = with_pure (fun () -> conv fmt input) in
  match (kernel, pure) with
  | Ok a, Ok b when a <> b ->
    Alcotest.failf "faulty kernel/pure output mismatch on %S: %S vs %S"
      (short input) a b
  | _ when deterministic && kernel <> pure ->
    let show = function Ok s -> "Ok " ^ s | Error e -> "Error " ^ e in
    Alcotest.failf
      "deterministic fault: kernel/pure outcomes differ on %S: %s vs %s"
      (short input) (show kernel) (show pure)
  | _ -> ()

let test_faulty_differential () =
  List.iter
    (fun point ->
      let before = Robust.Faults.trip_count point in
      Robust.Faults.with_fault point (fun () ->
          List.iter
            (fun input ->
              check_faulty ~deterministic:true b64 input;
              check_faulty ~deterministic:true b16 input)
            Gen.nasty;
          let st = Random.State.make [| seed; 6 |] in
          for _ = 1 to 200 do
            check_faulty ~deterministic:true b64 (Gen.any st)
          done);
      Alcotest.(check bool)
        (point ^ " actually tripped")
        true
        (Robust.Faults.trip_count point > before))
    Robust.Faults.pipeline_points;
  (* transient arming: independent draws across the two runs *)
  List.iter
    (fun point ->
      Robust.Faults.with_fault ~probability:0.3 point (fun () ->
          let st = Random.State.make [| seed; 7 |] in
          for _ = 1 to 300 do
            check_faulty ~deterministic:false b64 (Gen.any st)
          done))
    Robust.Faults.pipeline_points;
  Alcotest.(check string) "recovered" "0.1" (Dragon.Printer.shortest 0.1)

(* With each fault point armed the pipeline must degrade to structured
   errors, never exceptions, and disarming must fully restore it. *)
let test_fault_totality () =
  List.iter
    (fun point ->
      Robust.Faults.with_fault point (fun () ->
          let st = Random.State.make [| seed; 3 |] in
          for _ = 1 to 200 do
            let input = Gen.any st in
            match no_raise "read under fault" input (fun () -> R.read b64 input) with
            | Error _ -> ()
            | Ok v ->
              ignore
                (no_raise "print under fault" input (fun () ->
                     Dragon.Printer.print_value b64 v))
          done);
      Alcotest.(check bool)
        (point ^ " disarmed after with_fault")
        false (Robust.Faults.armed point))
    Robust.Faults.pipeline_points;
  (* and the pipeline is healthy again *)
  Alcotest.(check string) "recovered" "0.1" (Dragon.Printer.shortest 0.1)

(* With BDPRINT_FAULTS in the environment the armed points fire
   ambiently at their configured probabilities (dune's @fuzz-faults
   alias sets a 5% transient rate on every point).  The unfaulted
   suites would report those trips as failures, so this mode runs only
   the weakened differential — totality plus agreement whenever both
   paths succeed — and asserts the injection actually fired. *)
let test_ambient_fault_differential () =
  List.iter
    (fun input ->
      check_faulty ~deterministic:false b64 input;
      check_faulty ~deterministic:false b16 input)
    Gen.nasty;
  let st = Random.State.make [| seed; 8 |] in
  for _ = 1 to iters do
    check_faulty ~deterministic:false b64 (Gen.any st)
  done;
  Alcotest.(check bool)
    "ambient faults fired" true
    (Robust.Faults.total_trips () > 0)

let () =
  if Sys.getenv_opt "BDPRINT_FAULTS" <> None then
    Alcotest.run "fuzz-faults"
      [
        ( "ambient",
          [
            Alcotest.test_case "kernel/pure agree under ambient faults" `Quick
              test_ambient_fault_differential;
          ] );
      ]
  else
    Alcotest.run "fuzz"
      [
        ( "differential",
          [
            Alcotest.test_case "random totality and round-trip" `Slow
              test_random_totality;
            Alcotest.test_case "plain inputs vs fast reader and host strtod"
              `Slow test_plain_differential;
            Alcotest.test_case "nasty list and corpus files" `Quick test_corpus;
            Alcotest.test_case "fixed format within half quantum" `Slow
              test_fixed_half_quantum;
            Alcotest.test_case "scratch path byte-identical to pure path" `Slow
              test_scratch_pure_differential;
            Alcotest.test_case "formats invariant under fastpath gate" `Quick
              test_fastpath_format_invariance;
            Alcotest.test_case "totality under injected faults" `Quick
              test_fault_totality;
            Alcotest.test_case "kernel/pure agree under injected faults" `Quick
              test_faulty_differential;
          ] );
      ]
