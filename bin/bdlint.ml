(* bdlint: the project's own static analyzer (docs/STATIC_ANALYSIS.md).

   Walks every [.ml] under the given paths (default: [lib bin]), parses
   each file with the compiler's parser via ppxlib, builds the
   whole-program call graph, and enforces the project's invariant
   families:

   - [domain-safety]  toplevel mutable state must be Atomic/DLS/guarded;
   - [exn-escape]     manifest-listed result boundaries may not leak
                      exceptions, directly or through any call chain;
   - [no-alloc]       [@lint.no_alloc] kernels may not allocate, nor may
                      anything they transitively call;
   - [blocking]       kernels must not reach blocking operations; held
                      locks must not cover unbounded I/O;
   - [lock-order]     the mutex acquisition graph must be acyclic;
   - [width]          [@@lint.certified_width N] arithmetic must stay
                      inside its bit budget;
   - [telemetry-gate] hot-path Metrics recording must sit behind the
                      enable check;
   - [manifest-stale] manifest entries must match real files (warns,
                      never gates).

   Exit codes: 0 clean, 1 gating findings or a ratchet regression,
   2 usage/IO/parse errors.  [--changed [REF]] restricts the *report*
   to files touched since REF (default HEAD) while still building the
   call graph from the whole tree, so interprocedural findings stay
   sound.  [--baseline FILE] compares per-rule finding and suppression
   counts against a committed baseline and fails if any count rose
   (the CI ratchet); [--write-baseline FILE] records the current
   counts.  [--format json] emits a machine-readable report (CI
   uploads it as an artifact); [--metrics FILE] additionally exports
   per-rule counts through the project's own telemetry layer — the
   analyzer eats the instrumentation it polices. *)

open Cmdliner

let is_ml name =
  Filename.check_suffix name ".ml"
  && String.length name > 0
  && name.[0] <> '.'
  && name.[0] <> '_'

let skip_dir name =
  String.length name = 0 || name.[0] = '.' || name.[0] = '_'

(* Depth-first, sorted walk so output order is stable across runs. *)
let rec collect_ml acc path =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        let full = Filename.concat path entry in
        if Sys.is_directory full then
          if skip_dir entry then acc else collect_ml acc full
        else if is_ml entry then full :: acc
        else acc)
      acc entries
  else if is_ml (Filename.basename path) then path :: acc
  else acc

let collect paths = List.rev (List.fold_left collect_ml [] paths)

let write_out file contents =
  match file with
  | None -> print_string contents
  | Some f ->
    let oc = open_out f in
    output_string oc contents;
    close_out oc

(* ------------------------------------------------------------------ *)
(* --changed: the files touched since REF, per git *)

exception Git_failed of string

let changed_files ref_ =
  let cmd = Printf.sprintf "git diff --name-only %s" (Filename.quote ref_) in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.rev !lines
  | _ -> raise (Git_failed (Printf.sprintf "'%s' failed" cmd))

let restrict_to_changed changed (outcome : Lint.Engine.outcome) =
  let matches file =
    List.exists
      (fun c ->
        String.equal c file
        || Filename.concat "." c = file
        || Filename.basename c = Filename.basename file
           && String.length file >= String.length c
           && String.sub file (String.length file - String.length c)
                (String.length c)
              = c)
      changed
  in
  {
    outcome with
    Lint.Engine.findings =
      List.filter
        (fun f -> f.Lint.Finding.rule = Lint.Finding.Manifest_stale || matches f.Lint.Finding.file)
        outcome.Lint.Engine.findings;
  }

(* ------------------------------------------------------------------ *)
(* The ratchet baseline: per-rule finding and suppression counts.

   The file is JSON we also read back ourselves; the reader is a
   deliberately small scanner over the exact shape the writer
   produces (and tolerates reordered or missing keys, treating absent
   rules as zero). *)

let baseline_json (outcome : Lint.Engine.outcome) =
  let section counts =
    "{\n"
    ^ String.concat ",\n"
        (List.map
           (fun (r, n) ->
             Printf.sprintf "    \"%s\": %d" (Lint.Finding.rule_id r) n)
           counts)
    ^ "\n  }"
  in
  Printf.sprintf "{\n  \"findings\": %s,\n  \"suppressions\": %s\n}\n"
    (section (Lint.Engine.finding_counts outcome))
    (section outcome.Lint.Engine.suppressed)

exception Bad_baseline of string

(* Extract the { "rule": n, ... } object following "\"section\":". *)
let parse_section s section =
  let needle = Printf.sprintf "\"%s\"" section in
  let nlen = String.length needle in
  let rec find i =
    if i + nlen > String.length s then
      raise (Bad_baseline (Printf.sprintf "missing \"%s\" section" section))
    else if String.sub s i nlen = needle then i + nlen
    else find (i + 1)
  in
  let start = String.index_from s (find 0) '{' + 1 in
  let stop = String.index_from s start '}' in
  let body = String.sub s start (stop - start) in
  String.split_on_char ',' body
  |> List.filter_map (fun pair ->
         match String.split_on_char ':' pair with
         | [ k; v ] -> (
           let k = String.trim k and v = String.trim v in
           match (String.length k >= 2 && k.[0] = '"', int_of_string_opt v) with
           | true, Some n -> Some (String.sub k 1 (String.length k - 2), n)
           | _ -> None)
         | _ -> None)

let read_baseline file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (parse_section s "findings", parse_section s "suppressions")

(* Returns the regressions as (kind, rule, baseline, current) rows. *)
let ratchet_check baseline (outcome : Lint.Engine.outcome) =
  let base_f, base_s = baseline in
  let look tbl id = Option.value (List.assoc_opt id tbl) ~default:0 in
  let rows kind tbl counts =
    List.filter_map
      (fun (r, n) ->
        let id = Lint.Finding.rule_id r in
        let b = look tbl id in
        if n > b then Some (kind, id, b, n) else None)
      counts
  in
  rows "findings" base_f (Lint.Engine.finding_counts outcome)
  @ rows "suppressions" base_s outcome.Lint.Engine.suppressed

let ratchet_diff_json regressions =
  "{\n"
  ^ String.concat ",\n"
      (List.map
         (fun (kind, id, b, n) ->
           Printf.sprintf "  \"%s/%s\": {\"baseline\": %d, \"current\": %d}"
             kind id b n)
         regressions)
  ^ "\n}\n"

(* ------------------------------------------------------------------ *)

(* Feed per-rule counts through the telemetry layer and dump the
   snapshot through the writer [bdprint --metrics] uses: JSON to FILE,
   Prometheus text to FILE with its .json suffix replaced by .prom (or
   .prom appended). *)
let export_metrics file outcome =
  let registry = Telemetry.Metrics.create_registry () in
  let series help name rule n =
    let c =
      Telemetry.Metrics.counter ~registry
        ~labels:[ ("rule", Lint.Finding.rule_id rule) ]
        ~help name
    in
    Telemetry.Metrics.add c n
  in
  List.iter
    (fun (rule, n) ->
      series "Findings reported by bdlint" "bdlint_findings_total" rule n)
    (Lint.Engine.finding_counts outcome);
  List.iter
    (fun (rule, n) ->
      series "Findings absorbed by lint annotations" "bdlint_suppressions_total"
        rule n)
    outcome.Lint.Engine.suppressed;
  let files =
    Telemetry.Metrics.gauge ~registry ~help:"Files scanned by bdlint"
      "bdlint_files_scanned"
  in
  Telemetry.Metrics.set_gauge files outcome.Lint.Engine.files;
  Telemetry.Snapshot.write_files (Telemetry.Snapshot.take ~registry ()) file

let run paths manifest_file format output metrics quiet changed baseline
    write_baseline baseline_diff =
  let manifest_file =
    match manifest_file with
    | Some f -> Some f
    | None -> if Sys.file_exists "bdlint.manifest" then Some "bdlint.manifest" else None
  in
  match
    let manifest =
      match manifest_file with
      | None -> Lint.Manifest.empty
      | Some f -> Lint.Manifest.load f
    in
    let files = collect paths in
    (files, Lint.Engine.analyze_files ~manifest files)
  with
  | exception Sys_error msg ->
    Printf.eprintf "bdlint: %s\n" msg;
    2
  | exception Lint.Manifest.Malformed msg ->
    Printf.eprintf "bdlint: manifest: %s\n" msg;
    2
  | exception Lint.Engine.Parse_error msg ->
    Printf.eprintf "bdlint: parse error: %s\n" msg;
    2
  | _files, full_outcome -> (
    match
      Option.map (fun ref_ -> changed_files ref_) changed
    with
    | exception Git_failed msg ->
      Printf.eprintf "bdlint: %s\n" msg;
      2
    | changed_set -> (
      let outcome =
        match changed_set with
        | None -> full_outcome
        | Some changed -> restrict_to_changed changed full_outcome
      in
      (match format with
      | `Text ->
        let body = Lint.Engine.to_text outcome in
        let report =
          if quiet then body else body ^ Lint.Engine.summary outcome ^ "\n"
        in
        write_out output report
      | `Json -> write_out output (Lint.Engine.to_json outcome));
      Option.iter (fun f -> export_metrics f outcome) metrics;
      (* the ratchet always compares the WHOLE tree, not the --changed
         slice: the baseline is a global property *)
      Option.iter
        (fun f -> write_out (Some f) (baseline_json full_outcome))
        write_baseline;
      match
        Option.map (fun f -> ratchet_check (read_baseline f) full_outcome)
          baseline
      with
      | exception Sys_error msg ->
        Printf.eprintf "bdlint: baseline: %s\n" msg;
        2
      | exception Bad_baseline msg ->
        Printf.eprintf "bdlint: baseline: %s\n" msg;
        2
      | regressions -> (
        let regressions = Option.value regressions ~default:[] in
        Option.iter
          (fun f -> write_out (Some f) (ratchet_diff_json regressions))
          baseline_diff;
        List.iter
          (fun (kind, id, b, n) ->
            Printf.eprintf
              "bdlint: ratchet regression: %s/%s rose from %d to %d\n" kind id
              b n)
          regressions;
        match
          (Lint.Engine.gating_findings outcome, regressions)
        with
        | [], [] -> 0
        | _ -> 1)))

let paths_arg =
  Arg.(
    value
    & pos_all string [ "lib"; "bin" ]
    & info [] ~docv:"PATH"
        ~doc:"Files or directories to analyze (default: lib bin).")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:
          "Manifest listing exception-boundary modules, telemetry-gated \
           directories and declared lock orders (default: ./bdlint.manifest \
           when present).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Report format: text or json.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the report to FILE instead of stdout.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export per-rule finding/suppression counts as a telemetry \
           snapshot: JSON to FILE and Prometheus text next to it (FILE \
           with its .json suffix replaced by .prom, or .prom appended).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ] ~doc:"Suppress the trailing summary block.")

let changed_arg =
  Arg.(
    value
    & opt ~vopt:(Some "HEAD") (some string) None
    & info [ "changed" ] ~docv:"REF"
        ~doc:
          "Report only findings in files changed since REF (default HEAD) \
           per git diff --name-only.  The call graph is still built from \
           every file, so interprocedural findings in changed files stay \
           sound; manifest-stale warnings are always kept.")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Compare per-rule finding and suppression counts against FILE and \
           exit 1 if any count rose (the CI ratchet).  Counts are always \
           taken from the full tree, ignoring --changed.")

let write_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:"Record the current per-rule counts to FILE.")

let baseline_diff_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline-diff" ] ~docv:"FILE"
        ~doc:
          "With --baseline, write the per-rule regressions (if any) to FILE \
           as JSON for CI artifact upload.")

let cmd =
  let doc = "project-specific static analyzer for the bdprint tree" in
  let term =
    Term.(
      const run $ paths_arg $ manifest_arg $ format_arg $ output_arg
      $ metrics_arg $ quiet_arg $ changed_arg $ baseline_arg
      $ write_baseline_arg $ baseline_diff_arg)
  in
  Cmd.v (Cmd.info "bdlint" ~doc ~exits:[]) term

let () = exit (Cmd.eval' cmd)
