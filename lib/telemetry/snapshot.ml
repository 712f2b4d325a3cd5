(* A typed, immutable snapshot of a registry, with the three renderings
   the CLI and the tests need: Prometheus text format, JSON, and the
   human "stats:" lines shared by sequential and parallel stream runs. *)

type histogram_value = {
  bounds : int array;  (* inclusive upper bounds, without +Inf *)
  counts : int array;  (* per-bucket (non-cumulative), incl. overflow *)
  sum : int;
  count : int;
  exemplar : (int * int) option;  (* (value, trace_id) of the max sample *)
}

type value = Counter of int | Gauge of int | Histogram of histogram_value

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

type t = { samples : sample list }

let samples t = t.samples

let take ?registry () =
  let samples =
    List.map
      (fun m ->
        let meta = Metrics.meta_of m in
        let value =
          match m with
          | Metrics.Counter c -> Counter (Metrics.value c)
          | Metrics.Gauge g -> Gauge (Metrics.gauge_value g)
          | Metrics.Histogram h ->
            let counts, sum, count = Metrics.histogram_state h in
            Histogram
              { bounds = Metrics.histogram_bounds h; counts; sum; count;
                exemplar = Metrics.exemplar_of h }
        in
        { name = meta.Metrics.name; help = meta.Metrics.help;
          labels = meta.Metrics.labels; value })
      (Metrics.list_metrics ?registry ())
  in
  { samples }

(* ------------------------------------------------------------------ *)
(* Typed lookups (the tests' API) *)

let matches ?labels name s =
  String.equal s.name name
  && match labels with None -> true | Some l -> s.labels = l

let find ?labels t name = List.find_opt (matches ?labels name) t.samples

let counter_value ?labels t name =
  List.fold_left
    (fun acc s ->
      if matches ?labels name s then
        match s.value with Counter v -> acc + v | _ -> acc
      else acc)
    0 t.samples

let gauge_value ?labels t name =
  match find ?labels t name with Some { value = Gauge v; _ } -> v | _ -> 0

let histogram_value ?labels t name =
  match find ?labels t name with
  | Some { value = Histogram h; _ } -> Some h
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Prometheus text format *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_block labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
           labels)
    ^ "}"

let type_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let to_prometheus t =
  let buf = Buffer.create 4096 in
  (* families in first-registration order, samples contiguous per family *)
  let families =
    List.fold_left
      (fun acc s -> if List.mem s.name acc then acc else s.name :: acc)
      [] t.samples
    |> List.rev
  in
  List.iter
    (fun fam ->
      let ss = List.filter (fun s -> String.equal s.name fam) t.samples in
      (match ss with
      | first :: _ ->
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fam (escape_help first.help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" fam (type_name first.value))
      | [] -> ());
      List.iter
        (fun s ->
          match s.value with
          | Counter v | Gauge v ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" s.name (label_block s.labels) v)
          | Histogram h ->
            (* OpenMetrics-style exemplar, attached to the first bucket
               wide enough to hold the exemplar's value. *)
            let ex_bucket =
              match h.exemplar with
              | None -> -1
              | Some (v, _) ->
                let n = Array.length h.bounds in
                let i = ref 0 in
                while !i < n && v > h.bounds.(!i) do
                  incr i
                done;
                !i
            in
            let cum = ref 0 in
            Array.iteri
              (fun i c ->
                cum := !cum + c;
                let le =
                  if i < Array.length h.bounds then
                    string_of_int h.bounds.(i)
                  else "+Inf"
                in
                let ex =
                  match h.exemplar with
                  | Some (v, tid) when i = ex_bucket ->
                    Printf.sprintf " # {trace_id=\"%d\"} %d" tid v
                  | _ -> ""
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d%s\n" s.name
                     (label_block (s.labels @ [ ("le", le) ]))
                     !cum ex))
              h.counts;
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %d\n" s.name (label_block s.labels)
                 h.sum);
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" s.name (label_block s.labels)
                 h.count))
        ss)
    families;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON *)

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"metrics\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {";
      Buffer.add_string buf
        (Printf.sprintf "\"name\": \"%s\", \"type\": \"%s\""
           (Metrics.json_escape s.name) (type_name s.value));
      if s.labels <> [] then begin
        Buffer.add_string buf ", \"labels\": {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\": \"%s\"" (Metrics.json_escape k)
                 (Metrics.json_escape v)))
          s.labels;
        Buffer.add_char buf '}'
      end;
      (match s.value with
      | Counter v | Gauge v ->
        Buffer.add_string buf (Printf.sprintf ", \"value\": %d" v)
      | Histogram h ->
        Buffer.add_string buf ", \"buckets\": [";
        let cum = ref 0 in
        Array.iteri
          (fun j c ->
            cum := !cum + c;
            if j > 0 then Buffer.add_string buf ", ";
            let le =
              if j < Array.length h.bounds then string_of_int h.bounds.(j)
              else "\"+Inf\""
            in
            Buffer.add_string buf
              (Printf.sprintf "{\"le\": %s, \"count\": %d}" le !cum))
          h.counts;
        Buffer.add_string buf
          (Printf.sprintf "], \"sum\": %d, \"count\": %d" h.sum h.count);
        match h.exemplar with
        | Some (v, tid) ->
          Buffer.add_string buf
            (Printf.sprintf ", \"exemplar\": {\"value\": %d, \"trace_id\": %d}"
               v tid)
        | None -> ());
      Buffer.add_char buf '}')
    t.samples;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let prom_path path =
  if Filename.check_suffix path ".json" then
    Filename.chop_suffix path ".json" ^ ".prom"
  else path ^ ".prom"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_files t path =
  write_file path (to_json t);
  write_file (prom_path path) (to_prometheus t)

(* ------------------------------------------------------------------ *)
(* The "stats:" pretty-printer (bdprint --stats). *)

let pp_stream ppf t =
  let c ?labels name = counter_value ?labels t name in
  Format.fprintf ppf
    "stats: submitted=%d ok=%d@\n\
     stats: errors: syntax=%d range=%d budget=%d internal=%d"
    (c "bdprint_conversions_total")
    (c ~labels:[ ("result", "ok") ] "bdprint_conversion_results_total")
    (c ~labels:[ ("class", "syntax") ] "bdprint_conversion_errors_total")
    (c ~labels:[ ("class", "range") ] "bdprint_conversion_errors_total")
    (c ~labels:[ ("class", "budget") ] "bdprint_conversion_errors_total")
    (c ~labels:[ ("class", "internal") ] "bdprint_conversion_errors_total")
