(* Rule family 4: telemetry-gating.

   PR 3's zero-cost-when-disabled contract: on the conversion hot paths
   (manifest [telemetry-dir] directories) every Metrics *recording*
   call — [incr], [add], [observe], [set_gauge], [max_gauge] — must be
   dominated by the one-atomic-load enable check, i.e. sit in the then
   branch of an [if] whose condition consults [*.enabled ()].

   Registration ([counter]/[gauge]/[histogram], module-init time) and
   reads ([value]/[gauge_value], snapshot paths) are not recording and
   are exempt.  [Tracing.start]/[Tracing.finish] are exempt by
   construction: [Tracing.start] performs the enabled checks itself
   and returns 0 when telemetry is off, which [finish] re-checks.

   [Flight.record] is recording too: the call is internally gated, but
   its [detail] argument is almost always a [Printf.sprintf] that
   allocates before the gate is consulted, so hot-path sites must wrap
   the whole call in [if Telemetry.Flight.enabled () then ...].

   The family also checks span pairing: a top-level definition that
   opens a span ([Tracing.start] or [Tracing.start_for]) without
   [Tracing.finish] leaks an open span (the stage histogram and the
   trace ring never see it), and a [finish] without an opener observes
   a token from someone else's clock — both are flagged unless the
   binding carries [@lint.always_on "reason"].

   Deliberately ungated sites — the reader tier counters that back the
   always-available [Reader.Fast.stats] contract — carry
   [@lint.always_on "reason"]. *)

open Ppxlib

let rule = Finding.Telemetry_gate

let recording = [ "incr"; "add"; "observe"; "observe_ex"; "set_gauge"; "max_gauge" ]

let is_metrics_recording path =
  List.mem "Metrics" path
  && match Attrs.last path with Some l -> List.mem l recording | None -> false

let is_flight_recording path =
  List.mem "Flight" path && Attrs.last path = Some "record"

let is_recording_head path =
  is_metrics_recording path || is_flight_recording path

(* Does this condition consult the enable gate?  Matches
   [Telemetry.Metrics.enabled ()], [Metrics.enabled ()],
   [Telemetry.enabled ()] anywhere in the condition (so [e && gate]
   compositions count). *)
let consults_enabled cond =
  let found = ref false in
  let scanner =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          match Attrs.flatten_lid txt with
          | Some path when Attrs.last path = Some "enabled" -> found := true
          | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  scanner#expression cond;
  !found

let advice =
  "guard it with [if Telemetry.Metrics.enabled () then ...] or annotate \
   [@lint.always_on \"<reason>\"]"

(* Span pairing, per top-level value binding.  Purely syntactic and
   deliberately coarse: a definition that [start]s must also [finish]
   (any stage, any count) and vice versa.  Helpers that intentionally
   hold a token across definitions carry [@lint.always_on]. *)
let count_spans expr =
  let starts = ref 0 and finishes = ref 0 in
  let scanner =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply (head, _) -> (
          match Attrs.head_path head with
          | Some path when List.mem "Tracing" path -> (
            match Attrs.last path with
            | Some ("start" | "start_for") -> incr starts
            | Some "finish" -> incr finishes
            | _ -> ())
          | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  scanner#expression expr;
  (!starts, !finishes)

let check_span_pairing (sink : Sink.t) str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let starts, finishes = count_spans vb.pvb_expr in
            if (starts > 0) <> (finishes > 0) then
              if Attrs.has Attrs.always_on vb.pvb_attributes then
                sink.suppress rule
              else
                sink.report rule vb.pvb_loc
                  (Printf.sprintf
                     "unpaired span: %d Tracing.start/start_for against %d \
                      Tracing.finish in this definition; a started span \
                      must be finished (or the binding annotated \
                      [@lint.always_on \"<reason>\"])"
                     starts finishes))
          vbs
      | _ -> ())
    str

let check (sink : Sink.t) str =
  let gated = ref false in
  let deliver = ref `Report in
  let hit loc path =
    if not !gated then
      match !deliver with
      | `Report ->
        sink.report rule loc
          (Printf.sprintf
             "%s records outside the telemetry enable gate; %s"
             (Attrs.path_string path) advice)
      | `Suppress -> sink.suppress rule
  in
  let visitor =
    object (self)
      inherit Ast_traverse.iter as super

      method scoped ~g ~d f =
        let saved_g = !gated and saved_d = !deliver in
        gated := g;
        deliver := d;
        f ();
        gated := saved_g;
        deliver := saved_d

      method! expression e =
        let d =
          if Attrs.has Attrs.always_on e.pexp_attributes then `Suppress
          else !deliver
        in
        self#scoped ~g:!gated ~d (fun () ->
            match e.pexp_desc with
            | Pexp_ifthenelse (cond, then_, else_) ->
              self#expression cond;
              self#scoped ~g:(!gated || consults_enabled cond) ~d:!deliver
                (fun () -> self#expression then_);
              Option.iter self#expression else_
            | Pexp_apply (head, args) -> (
              match Attrs.head_path head with
              | Some path when is_recording_head path ->
                hit e.pexp_loc path;
                List.iter (fun (_, a) -> self#expression a) args
              | _ -> super#expression e)
            | _ -> super#expression e)

      method! value_binding vb =
        if Attrs.has Attrs.always_on vb.pvb_attributes then
          self#scoped ~g:!gated ~d:`Suppress (fun () -> super#value_binding vb)
        else super#value_binding vb
    end
  in
  visitor#structure str;
  check_span_pairing sink str
