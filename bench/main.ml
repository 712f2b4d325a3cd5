(* Benchmark harness regenerating the paper's evaluation (see DESIGN.md,
   experiment index):

   - table2:   relative CPU time of the scaling algorithms (Table 2)
   - table3:   free vs straightforward fixed vs printf + incorrect counts
               (Table 3)
   - digits:   shortest-output length distribution ("average 15.2 digits")
   - showcase: the in-text examples (1e23, # marks)
   - ablation: estimator accuracy (ours, E7)
   - sweep:    scaling cost by magnitude, the series behind Table 2 (ours)
   - reader:   certified fast paths vs exact (reader tiers, fixed
               format on the table tier beside Gay's heuristic; ours, E9)
   - telemetry: metrics and tracing overhead on bdprint's route (ours,
               E11; writes BENCH_telemetry.json)
   - bignum:   substrate microbenchmarks (ours, E8)
   - kernel:   table tier and allocation-free digit loop vs pure-Nat
               reference (throughput + Gc.minor_words per conversion;
               writes BENCH_kernel.json)

   bdprintd's load is perfbench's `daemon` workload (BENCHMARK.json).

   Run everything:            dune exec bench/main.exe
   One section:               dune exec bench/main.exe -- table2
   The two JSON files:        dune exec bench/main.exe -- all
   Bigger corpora:            dune exec bench/main.exe -- --size 250680 *)

module Nat = Bignum.Nat
module Value = Fp.Value

let b64 = Fp.Format_spec.binary64

let decompose_pos x =
  match Fp.Ieee.decompose x with
  | Value.Finite v -> v
  | _ -> invalid_arg "not finite"

(* CPU-time measurement, as in the paper. *)
let time_cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let sink = ref 0

let median a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b.(Array.length b / 2)

(* [f] with the table tier's dispatch gate set to [on], restored
   afterwards. *)
let with_fastpath on f =
  let was = Dragon.Printer.fastpath_enabled () in
  Dragon.Printer.set_fastpath_enabled on;
  Fun.protect ~finally:(fun () -> Dragon.Printer.set_fastpath_enabled was) f

(* Table-tier (hits, fallbacks) of one untimed run of [f]: the counters
   only record while telemetry is on. *)
let tier_counts stats f =
  let h0, f0 = stats () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f;
  let h1, f1 = stats () in
  (h1 - h0, f1 - f0)

let line = String.make 72 '-'

(* One timed row: a pass under its setting, how many times one timing
   repeats the pass, the CPU seconds per pass of each round, and the
   minor words of all its timed passes. *)
type row = {
  setting : (unit -> unit) -> unit;
  pass : unit -> unit;
  reps : int;
  times : float array;
  mutable words : float;
}

let passes = 5
let plain f = f ()

let row ?(reps = 1) setting pass =
  { setting; pass; reps; times = Array.make passes 0.; words = 0. }

(* Warm every row up (power tables, scratch pools), run Gc.full_major,
   then time [passes] rounds, each row's pass i before any row's pass
   i + 1: host load that drifts over seconds then hits the rows a ratio
   compares alike, and each ratio is the median of its per-round ratios
   ([over]).  A row whose pass takes a millisecond or less repeats it
   [reps] times per timing to get a clock reading that dwarfs timer
   resolution. *)
let time_rows rows =
  List.iter (fun r -> r.setting r.pass) rows;
  Gc.full_major ();
  for i = 0 to passes - 1 do
    List.iter
      (fun r ->
        r.setting (fun () ->
            let w0 = Gc.minor_words () in
            let _, t =
              time_cpu (fun () ->
                  for _ = 1 to r.reps do
                    r.pass ()
                  done)
            in
            r.words <- r.words +. (Gc.minor_words () -. w0);
            r.times.(i) <- t /. float_of_int r.reps))
      rows
  done

let median_s r = median r.times
let fastest_s r = Array.fold_left Float.min infinity r.times
let slowest_s r = Array.fold_left Float.max 0. r.times

(* minor words per item of a pass over [n] items *)
let words_per r n = r.words /. float_of_int (n * r.reps * passes)

(* a's time over b's: the median of the per-round ratios *)
let over a b = median (Array.init passes (fun i -> a.times.(i) /. b.times.(i)))

(* ------------------------------------------------------------------ *)
(* Table 2: scaling algorithms *)

let table2 ~size () =
  Printf.printf "%s\nTable 2: relative CPU time of scaling algorithms\n" line;
  Printf.printf "(scaling step on %d Schryer doubles; base 10)\n\n" size;
  let values = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  let boundaries = Array.map (Dragon.Boundaries.of_finite b64) values in
  let run_scaling strategy =
    snd
      (time_cpu (fun () ->
           Array.iteri
             (fun i (v : Value.finite) ->
               let k, _ =
                 Dragon.Scaling.scale strategy ~base:10 ~b:2 ~f:v.Value.f
                   ~e:v.Value.e boundaries.(i)
               in
               sink := !sink + k)
             values))
  in
  (* the paper's algorithm end to end: with the table tier on, the fast
     estimator's row would time the table tier and the others would not *)
  let run_end_to_end strategy =
    snd
      (with_fastpath false (fun () ->
           time_cpu (fun () ->
               Array.iter
                 (fun v ->
                   let r = Dragon.Free_format.convert ~strategy b64 v in
                   sink := !sink + Array.length r.Dragon.Free_format.digits)
                 values)))
  in
  (* warm up (also fills the power tables, as the paper's tables are) *)
  ignore (run_scaling Dragon.Scaling.Fast_estimate);
  ignore (run_scaling Dragon.Scaling.Iterative);
  let scaling = List.map (fun s -> (s, run_scaling s)) Dragon.Scaling.all in
  let full = List.map (fun s -> (s, run_end_to_end s)) Dragon.Scaling.all in
  let fast_s = List.assoc Dragon.Scaling.Fast_estimate scaling in
  let fast_f = List.assoc Dragon.Scaling.Fast_estimate full in
  Printf.printf "  %-16s %12s %10s %14s %12s\n" "Scaling" "scale (s)"
    "relative" "end-to-end (s)" "relative";
  List.iter
    (fun s ->
      let ts = List.assoc s scaling and tf = List.assoc s full in
      Printf.printf "  %-16s %12.3f %10.2f %14.3f %12.2f\n"
        (Dragon.Scaling.strategy_name s)
        ts (ts /. fast_s) tf (tf /. fast_f))
    Dragon.Scaling.all;
  Printf.printf
    "\n  paper (scaling step): iterative ~two orders of magnitude slower\n\
    \  than either estimate-based algorithm; estimator = 1.\n"

(* ------------------------------------------------------------------ *)
(* Table 3: free vs straightforward fixed vs printf *)

(* Parse the host printf's "d.dddddddddddddddde+XX" into (digits, k). *)
let parse_printf17 s =
  let digits = Array.make 17 0 in
  let di = ref 0 in
  let i = ref 0 in
  let n = String.length s in
  while !di < 17 && !i < n do
    (match s.[!i] with
    | '0' .. '9' as c ->
      digits.(!di) <- Char.code c - Char.code '0';
      incr di
    | _ -> ());
    if s.[!i] = 'e' then di := 17;
    incr i
  done;
  let epos = String.index s 'e' in
  let exp = int_of_string (String.sub s (epos + 1) (n - epos - 1)) in
  (digits, exp + 1)

let table3 ~size () =
  Printf.printf "%s\nTable 3: free format vs fixed format vs printf\n" line;
  Printf.printf "(%d Schryer doubles, 17 significant digits for the fixed \
                 printers)\n\n"
    size;
  let corpus = Workloads.Schryer.corpus ~size () in
  let values = Array.map decompose_pos corpus in
  let free () =
    Array.iter
      (fun v ->
        let r = Dragon.Free_format.convert b64 v in
        sink := !sink + String.length (Dragon.Render.free ~base:10 r))
      values
  in
  let fixed () =
    Array.iter
      (fun v ->
        let digits, _ =
          Baselines.Naive_fixed.convert_digit_loop ~ndigits:17 b64 v
        in
        sink := !sink + Array.length digits)
      values
  in
  let printf_host () =
    Array.iter
      (fun x -> sink := !sink + String.length (Printf.sprintf "%.16e" x))
      corpus
  in
  let printf_ext64 () =
    Array.iter
      (fun x ->
        let digits, _ = Baselines.Float_fixed.convert ~ndigits:17 x in
        sink := !sink + Array.length digits)
      corpus
  in
  ignore (time_cpu fixed);
  (* the paper's free-format algorithm, not the table tier *)
  let _, t_free = with_fastpath false (fun () -> time_cpu free) in
  let _, t_fixed = time_cpu fixed in
  let _, t_printf = time_cpu printf_host in
  let _, t_ext = time_cpu printf_ext64 in
  (* incorrect-rounding counts at 17 digits *)
  let incorrect_printf = ref 0 and incorrect_ext = ref 0 in
  Array.iteri
    (fun i x ->
      let exact = Baselines.Naive_fixed.convert ~ndigits:17 b64 values.(i) in
      if parse_printf17 (Printf.sprintf "%.16e" x) <> exact then
        incr incorrect_printf;
      if Baselines.Float_fixed.convert ~ndigits:17 x <> exact then
        incr incorrect_ext)
    corpus;
  Printf.printf "  %-34s %12s %10s %10s\n" "Printer" "CPU time (s)" "Relative"
    "Incorrect";
  Printf.printf "  %-34s %12.3f %10.2f %10s\n" "free format (this paper)"
    t_free (t_free /. t_fixed) "-";
  Printf.printf "  %-34s %12.3f %10.2f %10d\n"
    "straightforward fixed (exact)" t_fixed 1.0 0;
  Printf.printf "  %-34s %12.3f %10.2f %10d\n" "host printf %.16e" t_printf
    (t_printf /. t_fixed) !incorrect_printf;
  Printf.printf "  %-34s %12.3f %10.2f %10d\n"
    "printf model (64-bit extended)" t_ext (t_ext /. t_fixed) !incorrect_ext;
  Printf.printf
    "\n  paper (geo. means): free/fixed = 1.66, fixed/printf = 1.51,\n\
    \  incorrect printf counts 0..6280 of 250,680 depending on system\n"

(* ------------------------------------------------------------------ *)
(* Digit statistics *)

let digit_stats ~size () =
  Printf.printf "%s\nShortest-output digit statistics\n" line;
  let corpus = Workloads.Schryer.corpus ~size () in
  let histogram = Array.make 18 0 in
  let total = ref 0 in
  Array.iter
    (fun x ->
      let n = Dragon.Free_format.digit_count b64 (decompose_pos x) in
      histogram.(n) <- histogram.(n) + 1;
      total := !total + n)
    corpus;
  Array.iteri
    (fun n count ->
      if count > 0 then Printf.printf "  %2d digits: %8d\n" n count)
    histogram;
  Printf.printf "  average %.2f digits over %d values (paper: 15.2)\n"
    (float_of_int !total /. float_of_int size)
    size

(* ------------------------------------------------------------------ *)
(* In-text showcase *)

let showcase () =
  Printf.printf "%s\nIn-text examples\n" line;
  Printf.printf "  1e23, reader rounds to even : %s\n" (Dragon.Printer.print 1e23);
  Printf.printf "  1e23, mode-oblivious        : %s\n"
    (Baselines.Steele_white.print 1e23);
  Printf.printf "  100 to 20 places            : %s\n"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Absolute (-20)) 100.);
  Printf.printf "  1/3 to 10 places            : %s\n"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Absolute (-10)) (1. /. 3.));
  Printf.printf "  min denormal, 10 digits     : %s\n"
    (Dragon.Printer.print_fixed (Dragon.Fixed_format.Relative 10) 5e-324)

(* ------------------------------------------------------------------ *)
(* Ablation: estimator accuracy and scaling-only cost *)

let ablation ~size () =
  Printf.printf "%s\nAblation: estimate accuracy (estimate - k)\n" line;
  let corpus = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  List.iter
    (fun strategy ->
      match strategy with
      | Dragon.Scaling.Iterative -> ()
      | _ ->
        let exact = ref 0 and low1 = ref 0 and other = ref 0 in
        Array.iter
          (fun (v : Value.finite) ->
            let k =
              (Dragon.Free_format.convert b64 v).Dragon.Free_format.k
            in
            match
              Dragon.Scaling.estimate strategy ~base:10 ~b:2 ~f:v.Value.f
                ~e:v.Value.e
            with
            | Some est when est = k -> incr exact
            | Some est when est = k - 1 -> incr low1
            | _ -> incr other)
          corpus;
        Printf.printf "  %-15s exact: %7d   one low: %7d   other: %d\n"
          (Dragon.Scaling.strategy_name strategy)
          !exact !low1 !other)
    Dragon.Scaling.all;
  Printf.printf
    "\n  (the fixup makes 'one low' free; 'other' must always be 0)\n"

(* ------------------------------------------------------------------ *)
(* Cost vs magnitude: the series behind Table 2 *)

let sweep () =
  Printf.printf
    "%s\nScaling cost by decimal magnitude (us/conversion, end to end)\n" line;
  Printf.printf "  %-12s %12s %12s %14s\n" "|log10 v| ~" "iterative"
    "fast-estimate" "ratio";
  List.iter
    (fun mag ->
      let x = 1.5 *. (10. ** float_of_int mag) in
      let v = decompose_pos x in
      let iterations = 400 in
      let run strategy =
        snd
          (time_cpu (fun () ->
               for _ = 1 to iterations do
                 ignore
                   (Sys.opaque_identity
                      (Dragon.Free_format.convert ~strategy b64 v))
               done))
        /. float_of_int iterations *. 1e6
      in
      let t_iter = run Dragon.Scaling.Iterative in
      let t_fast = run Dragon.Scaling.Fast_estimate in
      Printf.printf "  %-12d %12.2f %12.2f %14.1f\n" (abs mag) t_iter t_fast
        (t_iter /. t_fast))
    [ 0; 20; 50; 100; 200; 300; -20; -50; -100; -200; -300 ];
  Printf.printf
    "\n  (iterative scaling degrades linearly in |log v|; the estimator\n\
    \   is flat — the mechanism behind Table 2)\n"

(* ------------------------------------------------------------------ *)
(* Reader tiers and the Gay fixed-format fast path (ablations, ours) *)

let reader_bench ~size () =
  Printf.printf "%s\nReader: Clinger and Lemire tiers vs exact\n" line;
  Printf.printf
    "(%d Schryer doubles and their shortest strings, %d torture inputs; \
     medians of %d interleaved passes)\n\n"
    size size passes;
  let corpus = Workloads.Schryer.corpus ~size () in
  (* shortest strings: the adversarial inputs closest to boundaries *)
  let strings = Array.map Dragon.Printer.print corpus in
  (* "0.<digits>e<k>" next to a midpoint: 17 to 25 digits, or the whole
     midpoint (up to 768 digits) *)
  let torture = Workloads.Corpus.torture_reader_inputs ~seed:1 size in
  let form keep = Array.of_list (List.filter keep (Array.to_list torture)) in
  let digits s = String.index s 'e' - 2 in
  let cut = form (fun s -> digits s <= 25)
  and whole = form (fun s -> digits s > 25) in
  let read_all read inputs () =
    Array.iter
      (fun s ->
        match read s with
        | Ok x -> sink := !sink + (int_of_float x land 1)
        | Error _ -> ())
      inputs
  in
  let exact_reader = row plain (read_all Reader.read_float strings)
  and fast_reader = row ~reps:20 plain (read_all Reader.Fast.read strings)
  and torture_cut = row plain (read_all Reader.Fast.read cut)
  and torture_whole = row plain (read_all Reader.Fast.read whole) in
  (* Fixed format at 15 digits: the exact n-digit conversion, Gay's
     heuristic (a comparator that never shipped) and the shipped
     Fixed_format on its exact tier and on the table tier *)
  let values = Array.map decompose_pos corpus in
  let naive () =
    Array.iter
      (fun v ->
        sink :=
          !sink
          + Array.length (fst (Baselines.Naive_fixed.convert ~ndigits:15 b64 v)))
      values
  and gay () =
    Array.iter
      (fun v ->
        sink :=
          !sink
          + Array.length
              (fst (Baselines.Gay_heuristic.convert ~ndigits:15 b64 v)))
      values
  and fixed15 () =
    Array.iter
      (fun v ->
        sink :=
          !sink
          + Array.length
              (Dragon.Fixed_format.convert_exn b64 v
                 (Dragon.Fixed_format.Relative 15))
                .Dragon.Fixed_format.digits)
      values
  in
  let naive_fixed = row plain naive
  and gay_fixed = row ~reps:5 plain gay
  and fixed_exact = row (with_fastpath false) fixed15
  and fixed_table = row ~reps:5 (with_fastpath true) fixed15 in
  time_rows
    [
      exact_reader; fast_reader; torture_cut; torture_whole; naive_fixed;
      gay_fixed; fixed_exact; fixed_table;
    ];
  (* tier counts, each of one untimed pass *)
  let compared inputs =
    let before = Reader.Fast.stats () in
    read_all Reader.Fast.read inputs ();
    (Reader.Fast.stats ()).Reader.Fast.fallback - before.Reader.Fast.fallback
  in
  let before = Reader.Fast.stats () in
  read_all Reader.Fast.read strings ();
  let after = Reader.Fast.stats () in
  let reader_fallbacks =
    after.Reader.Fast.fallback - before.Reader.Fast.fallback
  in
  let h0 = Baselines.Gay_heuristic.fast_path_hits () in
  let f0 = Baselines.Gay_heuristic.fallbacks () in
  gay ();
  let gay_hits = Baselines.Gay_heuristic.fast_path_hits () - h0
  and gay_fallbacks = Baselines.Gay_heuristic.fallbacks () - f0 in
  let fixed_hits, fixed_fallbacks =
    with_fastpath true (fun () ->
        tier_counts Dragon.Printer.fixed_fastpath_stats fixed15)
  in
  let print_row name r n =
    Printf.printf "  %-30s %8.4f s %8.0f ns/input (%.0f-%.0f) %7.1f minor w/input\n"
      name
      (median_s r)
      (median_s r /. float_of_int n *. 1e9)
      (fastest_s r /. float_of_int n *. 1e9)
      (slowest_s r /. float_of_int n *. 1e9)
      (words_per r n)
  in
  print_row "exact bignum reader" exact_reader size;
  print_row "tiered fast reader" fast_reader size;
  Printf.printf
    "  fast reader %.1fx the exact reader; tiers on the shortest strings: %d \
     Clinger exact, %d Lemire product, %d midpoint comparison or bignum \
     fallback\n"
    (over exact_reader fast_reader)
    (after.Reader.Fast.exact - before.Reader.Fast.exact)
    (after.Reader.Fast.extended - before.Reader.Fast.extended)
    reader_fallbacks;
  let torture_rows =
    [
      ("torture reads, 17-25 digits", torture_cut, cut);
      ("torture reads, full midpoints", torture_whole, whole);
    ]
  in
  List.iter
    (fun (name, r, inputs) ->
      print_row name r (Array.length inputs);
      Printf.printf "    (%d reads, %d of them compared with the midpoint)\n"
        (Array.length inputs) (compared inputs))
    torture_rows;
  Printf.printf "\n  Fixed format at 15 digits (correct by construction):\n";
  print_row "exact conversion" naive_fixed size;
  print_row "Gay heuristic" gay_fixed size;
  Printf.printf "    (%.1fx the exact conversion; %d hits, %d fallbacks)\n"
    (over naive_fixed gay_fixed) gay_hits gay_fallbacks;
  print_row "Fixed_format, exact tier" fixed_exact size;
  print_row "Fixed_format, table tier" fixed_table size;
  Printf.printf "    (%.1fx its exact tier; %d hits, %d fallbacks)\n"
    (over fixed_exact fixed_table) fixed_hits fixed_fallbacks;
  (* Gates, on exact counts, so they cannot flake.  Shortest strings
     have at most 17 digits, so the product tier answers every one of
     them; a single bignum fallback is a regression.  A torture read
     that reaches the midpoint comparison compares in the domain's
     workspaces and allocates little more than its result. *)
  let failed = ref false in
  if reader_fallbacks > 0 then begin
    Printf.eprintf
      "FAIL: %d Schryer shortest strings reached the reader's fallback \
       tier (want 0)\n"
      reader_fallbacks;
    failed := true
  end;
  List.iter
    (fun (name, r, inputs) ->
      let words = words_per r (Array.length inputs) in
      if words >= 32. then begin
        Printf.eprintf "FAIL: %s: %.1f minor words per read (want < 32)\n"
          name words;
        failed := true
      end)
    torture_rows;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Bignum substrate microbenchmarks *)

let bignum_bench () =
  Printf.printf "%s\nBignum substrate: multiplication crossover\n" line;
  let mk limbs seed =
    let st = Random.State.make [| seed |] in
    let rec build n acc =
      if n = 0 then acc
      else
        build (n - 1)
          (Nat.add (Nat.shift_left acc 30)
             (Nat.of_int (Random.State.int st ((1 lsl 30) - 1))))
    in
    build limbs Nat.one
  in
  List.iter
    (fun limbs ->
      let a = mk limbs 1 and b = mk limbs 2 in
      let iterations = max 1 (20_000 / limbs) in
      let t_school =
        snd
          (time_cpu (fun () ->
               for _ = 1 to iterations do
                 ignore (Sys.opaque_identity (Nat.mul_schoolbook a b))
               done))
      in
      let t_kara =
        snd
          (time_cpu (fun () ->
               for _ = 1 to iterations do
                 ignore (Sys.opaque_identity (Nat.mul_karatsuba a b))
               done))
      in
      Printf.printf
        "  %4d limbs (%5d bits): schoolbook %8.2f us   karatsuba %8.2f us\n"
        limbs (limbs * 30)
        (t_school /. float_of_int iterations *. 1e6)
        (t_kara /. float_of_int iterations *. 1e6))
    [ 4; 8; 16; 32; 64; 128; 256 ];
  Printf.printf "  (threshold used by Nat.mul: %d limbs)\n"
    Nat.karatsuba_threshold

(* ------------------------------------------------------------------ *)
(* Kernel: allocation-free digit loop vs the pure-Nat reference *)

let kernel_bench ~size () =
  Printf.printf
    "%s\nKernel: in-place digit-loop kernels vs pure-Nat reference\n" line;
  Printf.printf
    "(%d Schryer doubles; throughput and Gc.minor_words per conversion)\n\n"
    size;
  let values = Array.map decompose_pos (Workloads.Schryer.corpus ~size ()) in
  let fsize = float_of_int size in
  let free_pass () =
    Array.iter
      (fun v ->
        let r = Dragon.Free_format.convert b64 v in
        sink := !sink + Array.length r.Dragon.Free_format.digits)
      values
  in
  let fixed_pass () =
    Array.iter
      (fun v ->
        match
          Dragon.Fixed_format.convert b64 v (Dragon.Fixed_format.Relative 17)
        with
        | Ok t -> sink := !sink + Array.length t.Dragon.Fixed_format.digits
        | Error _ -> ())
      values
  in
  let sw_pass () =
    Array.iter
      (fun v ->
        sink :=
          !sink
          + Array.length
              (Baselines.Steele_white.convert b64 v).Dragon.Free_format.digits)
      values
  in
  (* the table tier finishes a pass in single-digit milliseconds at
     this corpus size *)
  let table_tier f = with_fastpath true f
  and exact_tier f = with_fastpath false f
  and forced_pure f =
    Dragon.Generate.set_force_pure true;
    Fun.protect ~finally:(fun () -> Dragon.Generate.set_force_pure false) f
  in
  let fast = row ~reps:50 table_tier free_pass
  and scr = row exact_tier free_pass
  and pure = row forced_pure free_pass
  and fx_fast = row ~reps:50 table_tier fixed_pass
  and fx_scr = row exact_tier fixed_pass
  and fx_pure = row forced_pure fixed_pass
  and sw = row plain sw_pass in
  time_rows [ fast; scr; pure; fx_fast; fx_scr; fx_pure; sw ];
  (* The table tier's hit/fallback division of one pass per format
     (counters record only while telemetry is on). *)
  let fp_hits, fp_fallbacks =
    table_tier (fun () -> tier_counts Dragon.Printer.fastpath_stats free_pass)
  in
  let fx_hits, fx_fallbacks =
    table_tier (fun () ->
        tier_counts Dragon.Printer.fixed_fastpath_stats fixed_pass)
  in
  let rate hits fallbacks =
    float_of_int fallbacks /. float_of_int (max 1 (hits + fallbacks))
  in
  let fallback_rate = rate fp_hits fp_fallbacks
  and fx_fallback_rate = rate fx_hits fx_fallbacks in
  let words r = words_per r size in
  let print_row name r =
    Printf.printf
      "  %-34s %10.3f s %10.0f conv/s (%.0f-%.0f) %10.1f minor w/conv\n" name
      (median_s r)
      (fsize /. median_s r)
      (fsize /. slowest_s r)
      (fsize /. fastest_s r)
      (words r)
  in
  print_row "free format, table fast path" fast;
  print_row "free format, kernel path" scr;
  print_row "free format, pure-Nat path" pure;
  print_row "fixed format (17), table fast path" fx_fast;
  print_row "fixed format (17), kernel path" fx_scr;
  print_row "fixed format (17), pure-Nat path" fx_pure;
  print_row "Steele & White baseline" sw;
  Printf.printf "\n  free format: %.1fx fewer minor words, %.2fx throughput\n"
    (words pure /. words scr) (over pure scr);
  Printf.printf
    "  table fast path: %.2fx over the exact kernels (%.2fx over pure), %d \
     hits / %d fallbacks (%.3f%% fallback)\n"
    (over scr fast) (over pure fast) fp_hits fp_fallbacks
    (100.0 *. fallback_rate);
  Printf.printf
    "  fixed format (17) on the table tier: %.2fx over the exact kernels \
     (%.2fx over pure), %d hits / %d fallbacks (%.3f%% fallback)\n"
    (over fx_scr fx_fast) (over fx_pure fx_fast) fx_hits fx_fallbacks
    (100.0 *. fx_fallback_rate);
  let json r =
    Printf.sprintf
      "\"time_s\": %.6f, \"conversions_per_s\": { \"median\": %.0f, \"min\": \
       %.0f, \"max\": %.0f }, \"minor_words_per_conversion\": %.1f"
      (median_s r)
      (fsize /. median_s r)
      (fsize /. slowest_s r)
      (fsize /. fastest_s r)
      (words r)
  in
  let format_json ~fast ~hits ~fallbacks ~rate ~scr ~pure =
    Printf.sprintf
      "{\n\
      \    \"fastpath\": { %s, \"hits\": %d, \"fallbacks\": %d, \
       \"fallback_rate\": %.5f, \"speedup_vs_kernel\": %.3f, \
       \"speedup_vs_pure\": %.3f },\n\
      \    \"kernel\": { %s },\n\
      \    \"pure\": { %s },\n\
      \    \"minor_words_reduction\": %.2f,\n\
      \    \"speedup\": %.3f\n\
      \  }"
      (json fast) hits fallbacks rate (over scr fast) (over pure fast) (json scr)
      (json pure)
      (words pure /. words scr)
      (over pure scr)
  in
  let oc = open_out "BENCH_kernel.json" in
  Printf.fprintf oc
    "{\n\
    \  \"size\": %d,\n\
    \  \"passes\": %d,\n\
    \  \"free_format\": %s,\n\
    \  \"fixed_format_17\": %s,\n\
    \  \"steele_white\": { %s }\n\
     }\n"
    size passes
    (format_json ~fast ~hits:fp_hits ~fallbacks:fp_fallbacks ~rate:fallback_rate
       ~scr ~pure)
    (format_json ~fast:fx_fast ~hits:fx_hits ~fallbacks:fx_fallbacks
       ~rate:fx_fallback_rate ~scr:fx_scr ~pure:fx_pure)
    (json sw);
  close_out oc;
  Printf.printf "  wrote BENCH_kernel.json\n";
  (* Acceptance floor: the table fast path's paired speedup over the
     exact kernels must clear 3x on this corpus in both formats, with
     margin to spare; regressing below that fails the bench (and the CI
     bench step) loudly. *)
  List.iter
    (fun (format, speedup) ->
      if speedup < 3.0 then begin
        Printf.eprintf
          "FAIL: %s fast-path speedup %.2fx below the 3x acceptance floor\n"
          format speedup;
        exit 1
      end)
    [ ("free format", over scr fast); ("fixed format", over fx_scr fx_fast) ]

(* ------------------------------------------------------------------ *)
(* Telemetry: instrumentation overhead of the metrics/tracing layer, on
   the route bdprint and bdprintd run: [Net.Conversion.convert] from
   text to bytes (reader, table tier, exact fallback, layout), on the
   Schryer values' shortest strings. *)

let telemetry_bench ~size () =
  Printf.printf "%s\nTelemetry: instrumentation overhead (text to bytes)\n"
    line;
  Printf.printf
    "(%d Schryer shortest strings through Net.Conversion.convert; medians \
     of alternating passes)\n\n"
    size;
  let inputs =
    Array.map Dragon.Printer.print (Workloads.Schryer.corpus ~size ())
  in
  let convert input =
    match Net.Conversion.convert input with
    | Ok out -> sink := !sink + String.length out
    | Error e ->
      failwith
        (Printf.sprintf "telemetry bench: %S: %s" input
           (Robust.Error.to_string e))
  in
  let pass () = Array.iter convert inputs in
  (* the tracing pass mirrors what bdprint --stdin does per line: sample
     a trace id (1-in-64 by default), run the conversion inside the
     request span, close it *)
  let traced_pass () =
    Array.iter
      (fun input ->
        let tid = Telemetry.Tracing.begin_request () in
        convert input;
        Telemetry.Tracing.end_request tid)
      inputs
  in
  pass () (* warm up; fills the power tables *);
  let reps = 25 in
  let t_off = Array.make reps 0.
  and t_on = Array.make reps 0.
  and t_trace = Array.make reps 0. in
  (* alternate enabled/disabled/traced passes so clock drift and GC
     phase hit all sides equally *)
  for i = 0 to reps - 1 do
    Telemetry.set_enabled false;
    Telemetry.Tracing.set_enabled false;
    t_off.(i) <- snd (time_cpu pass);
    Telemetry.set_enabled true;
    t_on.(i) <- snd (time_cpu pass);
    Telemetry.Tracing.set_enabled true;
    Telemetry.Tracing.set_sample_every 64;
    Telemetry.Tracing.clear ();
    t_trace.(i) <- snd (time_cpu traced_pass);
    Telemetry.Tracing.set_enabled false
  done;
  Telemetry.set_enabled false;
  Telemetry.Tracing.clear ();
  let m_off = median t_off
  and m_on = median t_on
  and m_trace = median t_trace in
  let ns t = t /. float_of_int size *. 1e9 in
  (* overhead is the median of per-rep paired ratios: the three passes
     of one rep are adjacent in time, so machine noise (frequency
     scaling, neighbour load) hits the pair together and cancels in the
     ratio, where a ratio of independent medians would keep it *)
  let paired_overhead base t =
    median (Array.init reps (fun i -> (t.(i) -. base.(i)) /. base.(i)))
    *. 100.
  in
  let overhead = paired_overhead t_off t_on in
  let overhead_trace = paired_overhead t_off t_trace in
  (* what tracing itself costs: traced pass against the adjacent
     metrics-enabled pass, so the budget judges the tracing layer and
     not the (pre-existing) stage histograms under it *)
  let marginal_trace = paired_overhead t_on t_trace in
  Printf.printf "  %-28s %10.3f s %10.1f ns/conversion\n"
    "telemetry disabled" m_off (ns m_off);
  Printf.printf "  %-28s %10.3f s %10.1f ns/conversion\n"
    "telemetry enabled" m_on (ns m_on);
  Printf.printf "  %-28s %10.3f s %10.1f ns/conversion\n"
    "+ tracing (1-in-64)" m_trace (ns m_trace);
  Printf.printf
    "  overhead vs disabled: metrics %.2f%%, metrics+tracing %.2f%%\n"
    overhead overhead_trace;
  Printf.printf
    "  tracing marginal: %.2f%% over metrics alone (budget: <= 2%% median)\n"
    marginal_trace;
  let oc = open_out "BENCH_telemetry.json" in
  Printf.fprintf oc
    "{\n\
    \  \"size\": %d,\n\
    \  \"repetitions\": %d,\n\
    \  \"median_disabled_s\": %.6f,\n\
    \  \"median_enabled_s\": %.6f,\n\
    \  \"median_traced_s\": %.6f,\n\
    \  \"ns_per_conversion_disabled\": %.1f,\n\
    \  \"ns_per_conversion_enabled\": %.1f,\n\
    \  \"ns_per_conversion_traced\": %.1f,\n\
    \  \"trace_sample_every\": 64,\n\
    \  \"overhead_percent\": %.2f,\n\
    \  \"overhead_traced_percent\": %.2f,\n\
    \  \"tracing_marginal_percent\": %.2f\n\
     }\n"
    size reps m_off m_on m_trace (ns m_off) (ns m_on) (ns m_trace) overhead
    overhead_trace marginal_trace;
  close_out oc;
  Printf.printf "  wrote BENCH_telemetry.json\n"

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let size = ref 0 in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | "--size" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n ->
        size := n;
        parse rest
      | None ->
        Printf.eprintf "bench: bad --size %s; expected an integer\n%!" n;
        exit 2)
    | s :: rest ->
      if s <> Sys.argv.(0) then sections := s :: !sections;
      parse rest
  in
  parse (List.tl args);
  let pick default = if !size > 0 then !size else default in
  let runs =
    [
      ("table2", fun () -> table2 ~size:(pick 8_000) ());
      ("table3", fun () -> table3 ~size:(pick 40_000) ());
      ("digits", fun () -> digit_stats ~size:(pick 100_000) ());
      ("showcase", showcase);
      ("ablation", fun () -> ablation ~size:(pick 50_000) ());
      ("sweep", sweep);
      ("reader", fun () -> reader_bench ~size:(pick 30_000) ());
      ("telemetry", fun () -> telemetry_bench ~size:(pick 20_000) ());
      ("bignum", bignum_bench);
      ("kernel", fun () -> kernel_bench ~size:(pick 8_000) ());
    ]
  in
  (* a misspelt or removed section would otherwise measure nothing and
     exit 0 *)
  (match
     List.filter
       (fun s -> s <> "all" && not (List.mem_assoc s runs))
       !sections
   with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown section %s; known sections: all %s\n%!"
      (String.concat " " (List.rev unknown))
      (String.concat " " (List.map fst runs));
    exit 2);
  (* [bench -- all]: the kernel and telemetry sections, which write
     BENCH_kernel.json and BENCH_telemetry.json — CI's bench step drives
     this and uploads both files as artifacts; a section that fails its
     own acceptance check (a fast-path speedup under the floor, a
     conversion error) exits nonzero and fails the step loudly. *)
  if List.mem "all" !sections then sections := [ "kernel"; "telemetry" ];
  List.iter
    (fun (name, run) ->
      if !sections = [] || List.mem name !sections then run ())
    runs;
  ignore !sink
