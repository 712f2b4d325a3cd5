(* The one conversion route from text to bytes, [Net.Conversion.convert]:
   bdprint runs it for every input, under its flags, and bdprintd's
   worker pool runs it with the defaults.

   - A differential under bdprint's flag sets against an oracle that
     reads every input with the exact or hex reader and prints the
     decomposed value ([Printer.print_value], [Fixed_format.convert] and
     [Render.fixed], [Printer.print_hex]): bytes and error text agree,
     hostile inputs and an expired deadline included.
     bdprintd's inline route ([Net.Conversion.inline]) joins it with
     the table tier open: each answer it gives is the default route's.
   - An allocation bound: a table-tier hit costs at most 26 minor words
     from text to bytes.
   - The tier counters: one read and at most one table-tier attempt per
     line, and two attempts for a request that bdprintd's inline step
     declines, as docs/OBSERVABILITY.md says. *)

module Conversion = Net.Conversion
module Printer = Dragon.Printer
module Fixed = Dragon.Fixed_format
module Error = Robust.Error

type settings = {
  name : string;
  base : int;
  mode : Fp.Rounding.mode;
  format : Fp.Format_spec.t;
  strategy : Dragon.Scaling.strategy;
  notation : Dragon.Render.notation;
  request : Conversion.request;
}

let default =
  {
    name = "default";
    base = 10;
    mode = Fp.Rounding.To_nearest_even;
    format = Fp.Format_spec.binary64;
    strategy = Dragon.Scaling.Fast_estimate;
    notation = Dragon.Render.Auto;
    request = Conversion.Shortest;
  }

(* bdprint's --digits D and --places P *)
let digits d = Conversion.Position (Fixed.Relative d)
let places p = Conversion.Position (Fixed.Absolute (-p))

let flag_sets =
  let open Fp.Rounding in
  let open Dragon.Scaling in
  let d = default in
  [
    d;
    { d with name = "--digits 1"; request = digits 1 };
    { d with name = "--digits 5"; request = digits 5 };
    { d with name = "--digits 17"; request = digits 17 };
    { d with name = "--digits 40"; request = digits 40 };
    {
      d with
      name = "--digits 20 --notation pos";
      request = digits 20;
      notation = Dragon.Render.Positional;
    };
    { d with name = "--places 3"; request = places 3 };
    { d with name = "--places 25"; request = places 25 };
    { d with name = "--places -2"; request = places (-2) };
    { d with name = "--places -20"; request = places (-20) };
    { d with name = "--base 2"; base = 2 };
    { d with name = "--base 16"; base = 16 };
    { d with name = "--base 2 --digits 5"; base = 2; request = digits 5 };
    { d with name = "--base 16 --digits 10"; base = 16; request = digits 10 };
    { d with name = "--hex"; request = Conversion.Hex };
    { d with name = "--notation sci"; notation = Dragon.Render.Scientific };
    { d with name = "--notation pos"; notation = Dragon.Render.Positional };
    { d with name = "--mode away"; mode = To_nearest_away };
    { d with name = "--mode nearest-zero"; mode = To_nearest_toward_zero };
    { d with name = "--mode zero"; mode = Toward_zero };
    { d with name = "--mode up"; mode = Toward_positive };
    { d with name = "--mode down"; mode = Toward_negative };
    {
      d with
      name = "--mode up --digits 5";
      mode = Toward_positive;
      request = digits 5;
    };
    {
      d with
      name = "--mode away --places 3";
      mode = To_nearest_away;
      request = places 3;
    };
    { d with name = "--strategy gay"; strategy = Gay_taylor };
    { d with name = "--strategy iterative"; strategy = Iterative };
    { d with name = "--strategy float-log"; strategy = Float_log };
    { d with name = "--format binary32"; format = Fp.Format_spec.binary32 };
    { d with name = "--format binary16"; format = Fp.Format_spec.binary16 };
    {
      d with
      name = "--format binary32 --digits 5";
      format = Fp.Format_spec.binary32;
      request = digits 5;
    };
    {
      d with
      name = "--format binary16 --digits 3";
      format = Fp.Format_spec.binary16;
      request = digits 3;
    };
  ]

let route s input =
  Conversion.convert ~base:s.base ~mode:s.mode ~format:s.format
    ~strategy:s.strategy ~notation:s.notation ~request:s.request input

(* The exact or hex reader's value, printed from its decomposition. *)
let oracle s input =
  let read =
    if Reader.Hex.is_literal input then
      Reader.Hex.read ~mode:s.mode s.format input
    else Reader.read ~mode:s.mode s.format input
  in
  match read with
  | Error _ as e -> e
  | Ok value -> (
    match (s.request, value) with
    | Conversion.Hex, _ -> Ok (Printer.print_hex (Fp.Ieee.compose value))
    | Conversion.Shortest, _ ->
      Printer.print_value ~base:s.base ~mode:s.mode ~strategy:s.strategy
        ~notation:s.notation s.format value
    | Conversion.Position _, Fp.Value.Zero neg ->
      Ok (Dragon.Render.zero ~neg ())
    | Conversion.Position _, Fp.Value.Inf neg ->
      Ok (Dragon.Render.infinity ~neg ())
    | Conversion.Position _, Fp.Value.Nan -> Ok Dragon.Render.nan
    | Conversion.Position p, Fp.Value.Finite v ->
      Result.map
        (Dragon.Render.fixed ~notation:s.notation ~neg:v.neg ~base:s.base)
        (Fixed.convert ~base:s.base ~mode:s.mode s.format v p))

let show = function
  | Ok s -> "ok " ^ s
  | Error e -> "error " ^ Error.to_string e

let hostile =
  [
    "0"; "-0"; "0.0"; "-0.0"; "inf"; "-inf"; "nan"; "bogus"; ""; "1_000.5";
    "0x1.8p+1"; "-0x1p-1074"; "1e999999999"; "-1e999999999"; "1e23";
    "9007199254740992"; String.make 70_000 '1';
  ]

(* bdprint --stdin's kind of line: shortest and 17-digit decimals,
   reads past 19 digits that need the bignum comparison, and the fuzz
   generator's mix of plain, extreme, long and garbage text. *)
let cli_mix () =
  let st = Random.State.make [| 26 |] in
  let schryer = Workloads.Schryer.corpus ~size:300 () in
  let finite = Workloads.Corpus.random_finite ~seed:26 150 in
  List.concat
    [
      Array.to_list (Array.map Printer.shortest schryer);
      Array.to_list (Array.map (Printf.sprintf "%.17g") finite);
      Array.to_list (Workloads.Corpus.torture_reader_inputs ~seed:26 60);
      List.init 300 (fun _ -> Robust.Gen.any st);
      hostile;
    ]

(* A deadline that has passed, whose error reports 1 ms on every
   call. *)
let expired =
  {
    Robust.Budget.expires_at = 0.;
    started_at = Unix.gettimeofday () +. 3600.;
    grant_ms = 0;
  }

(* The table tier open for the scope, whatever BDPRINT_NO_FASTPATH and
   BDPRINT_FORCE_PURE say. *)
let with_table_tier f =
  let was = Printer.fastpath_enabled ()
  and pure = Dragon.Generate.force_pure () in
  Printer.set_fastpath_enabled true;
  Dragon.Generate.set_force_pure false;
  Fun.protect
    ~finally:(fun () ->
      Printer.set_fastpath_enabled was;
      Dragon.Generate.set_force_pure pure)
    f

let test_differential () =
  let inputs = cli_mix () in
  List.iter
    (fun s ->
      List.iter
        (fun input ->
          let got = show (route s input) and want = show (oracle s input) in
          if got <> want then
            Alcotest.failf "%s on %S: route %S, oracle %S" s.name
              (String.sub input 0 (min 60 (String.length input)))
              got want)
        inputs;
      Robust.Budget.set_deadline (Some expired);
      Fun.protect
        ~finally:(fun () -> Robust.Budget.set_deadline None)
        (fun () ->
          List.iter
            (fun input ->
              let got = route s input in
              Alcotest.(check string)
                (Printf.sprintf "%s on %s past its deadline" s.name input)
                (show (oracle s input)) (show got);
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s fails" s.name input)
                true (Result.is_error got))
            [ "0.1"; "1e23" ]))
    flag_sets;
  (* bdprintd's inline route, with the table tier open: each answer it
     gives must be the default route's bytes.  The floor on its answers
     keeps the check from passing with nothing checked. *)
  let answered =
    with_table_tier @@ fun () ->
    List.fold_left
      (fun n input ->
        match Conversion.inline input with
        | None -> n
        | Some out ->
          let want = show (Conversion.convert input) in
          if "ok " ^ out <> want then
            Alcotest.failf "inline on %S: %S, convert %S"
              (String.sub input 0 (min 60 (String.length input)))
              out want;
          n + 1)
      0 inputs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d inline answers, at least 600" answered)
    true (answered >= 600)

let with_metrics on f =
  let was = Telemetry.Metrics.enabled () in
  Telemetry.Metrics.set_enabled on;
  Fun.protect ~finally:(fun () -> Telemetry.Metrics.set_enabled was) f

(* From text to bytes, a hit allocates the catch's closure and its
   [Ok], the reader's [Ok] and boxed float, and the result string. *)
let test_allocation () =
  with_table_tier @@ fun () ->
  with_metrics false @@ fun () ->
  let hit x =
    Printer.print_table ~mode:Fp.Rounding.To_nearest_even
      ~notation:Dragon.Render.Auto x
    <> ""
  in
  let lines =
    Workloads.Schryer.corpus ~size:20_100 ()
    |> Array.to_list |> List.filter hit
    |> List.filteri (fun i _ -> i < 20_000)
    |> List.map Printer.shortest |> Array.of_list
  in
  let n = Array.length lines in
  Alcotest.(check int) "table-tier hits" 20_000 n;
  let pass () =
    Array.iter
      (fun s -> ignore (Sys.opaque_identity (Conversion.convert s)))
      lines
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per line, at most 26" words)
    true (words <= 26.)

let reads () =
  let s = Reader.Fast.stats () in
  s.exact + s.extended + s.fallback

let attempts () =
  let hits, fallbacks = Printer.fastpath_stats () in
  hits + fallbacks

(* A finite non-zero value is read once, through whichever reader tier
   answers it, and meets the table tier at most once: [print] goes
   from a decline straight to the exact tier. *)
let test_counters () =
  with_table_tier @@ fun () ->
  with_metrics true @@ fun () ->
  let schryer = Workloads.Schryer.corpus ~size:500 () in
  let inputs =
    List.concat
      [
        Array.to_list (Array.map Printer.shortest schryer);
        Array.to_list (Array.map (Printf.sprintf "%.17g") schryer);
        Array.to_list (Workloads.Corpus.torture_reader_inputs ~seed:26 60);
        [ "1e23"; "5e22"; "3.75"; "1234"; "0.5"; "1_000.5"; "2.5e-320" ];
      ]
  in
  List.iter
    (fun input ->
      let r0 = reads () and a0 = attempts () in
      (match Conversion.convert input with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" input (Error.to_string e));
      Alcotest.(check int) ("reads of " ^ input) 1 (reads () - r0);
      Alcotest.(check bool)
        ("table-tier attempts on " ^ input ^ " at most 1")
        true
        (attempts () - a0 <= 1))
    inputs;
  (* bdprintd: the connection thread's inline step declines 1e23 (its
     shortest form lies on the high end of its rounding range), and the
     worker's convert tries the table tier on it again *)
  let a0 = attempts () in
  Alcotest.(check (option string)) "inline declines 1e23" None
    (Conversion.inline "1e23");
  Alcotest.(check string) "the pool converts 1e23" "ok 1e23"
    (show (Conversion.convert "1e23"));
  Alcotest.(check int) "two table-tier attempts" 2 (attempts () - a0)

let () =
  Alcotest.run "conversion"
    [
      ( "route",
        [
          Alcotest.test_case "differential against the exact reader" `Quick
            test_differential;
          Alcotest.test_case "a hit costs at most 26 minor words" `Quick
            test_allocation;
          Alcotest.test_case "tier counters" `Quick test_counters;
        ] );
    ]
