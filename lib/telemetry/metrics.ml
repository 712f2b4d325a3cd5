(* A domain-safe metrics registry: atomic counters, gauges and
   fixed-bucket histograms with lock-free recording.

   Recording never takes a lock — every cell is an [Atomic.t int], so
   worker domains of the service layer can hammer the same counter
   without contention beyond the cache line.  Registration (rare, at
   module initialisation or test setup) is serialized by a per-registry
   mutex and is idempotent: registering the same (name, labels) series
   twice returns the existing metric, so libraries can declare their
   instruments at toplevel without coordination.

   Hot-path instrumentation sites guard themselves with {!enabled} — a
   single atomic load and branch when telemetry is off, which is the
   zero-cost-when-disabled contract the conversion hot loops rely on.
   Always-on sites (the reader tier counters backing
   [Reader.Fast.stats], the fault trip counters backing chaos tests)
   simply skip the guard: one uncontended fetch-and-add per event. *)

type meta = { name : string; help : string; labels : (string * string) list }

type counter = { c_meta : meta; c_cell : int Atomic.t }

type gauge = { g_meta : meta; g_cell : int Atomic.t }

type exemplar = { ex_value : int; ex_trace : int }

type histogram = {
  h_meta : meta;
  bounds : int array;  (* strictly increasing inclusive upper bounds *)
  buckets : int Atomic.t array;  (* length bounds + 1; last is overflow *)
  h_sum : int Atomic.t;
  h_count : int Atomic.t;
  h_exemplar : exemplar option Atomic.t;
      (* the max-valued traced observation; immutable record, CAS swap *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = { lock : Mutex.t; mutable items : metric list (* reversed *) }
[@@lint.guarded_by "lock"]

let create_registry () = { lock = Mutex.create (); items = [] }

let default = create_registry ()

(* ------------------------------------------------------------------ *)
(* Global enable switch *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

(* ------------------------------------------------------------------ *)
(* Registration *)

let meta_of = function
  | Counter c -> c.c_meta
  | Gauge g -> g.g_meta
  | Histogram h -> h.h_meta

let same_series m name labels =
  let mt = meta_of m in
  String.equal mt.name name && mt.labels = labels

let with_registry registry f =
  Mutex.lock registry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.lock) f

let counter ?(registry = default) ?(labels = []) ~help name =
  with_registry registry @@ fun () ->
  match List.find_opt (fun m -> same_series m name labels) registry.items with
  | Some (Counter c) -> c
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s already registered as another type"
         name)
  | None ->
    let c = { c_meta = { name; help; labels }; c_cell = Atomic.make 0 } in
    registry.items <- Counter c :: registry.items;
    c

let gauge ?(registry = default) ?(labels = []) ~help name =
  with_registry registry @@ fun () ->
  match List.find_opt (fun m -> same_series m name labels) registry.items with
  | Some (Gauge g) -> g
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %s already registered as another type"
         name)
  | None ->
    let g = { g_meta = { name; help; labels }; g_cell = Atomic.make 0 } in
    registry.items <- Gauge g :: registry.items;
    g

(* Log-linear bucket bounds: [lo] itself, then within each decade
   [b, 10b) the bounds [b * i * 10 / per_decade] for i = 1..per_decade,
   up to and including [hi].  per_decade = 5 from lo = 100 gives
   100, 200, 400, 600, 800, 1000, 2000, ... — round numbers, relative
   resolution roughly constant across five orders of magnitude, and a
   bucket count that grows with log(hi/lo) instead of hi/lo. *)
let log_linear ?(per_decade = 5) ~lo ~hi () =
  if lo < 1 then invalid_arg "Metrics.log_linear: need lo >= 1";
  if hi <= lo then invalid_arg "Metrics.log_linear: need hi > lo";
  if per_decade < 1 || per_decade > 10 then
    invalid_arg "Metrics.log_linear: need 1 <= per_decade <= 10";
  let acc = ref [ lo ] in
  let b = ref lo in
  while !b < hi do
    for i = 1 to per_decade do
      let v = !b * i * 10 / per_decade in
      if v > lo && v <= hi && not (List.mem v !acc) then acc := v :: !acc
    done;
    b := !b * 10
  done;
  if not (List.mem hi !acc) then acc := hi :: !acc;
  Array.of_list (List.sort compare !acc)

let check_bounds name bounds =
  let n = Array.length bounds in
  if n = 0 then
    invalid_arg (Printf.sprintf "Metrics.histogram: %s has no buckets" name);
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s bounds not strictly increasing"
           name)
  done

let histogram ?(registry = default) ?(labels = []) ~help ~bounds name =
  check_bounds name bounds;
  with_registry registry @@ fun () ->
  match List.find_opt (fun m -> same_series m name labels) registry.items with
  | Some (Histogram h) ->
    if h.bounds <> bounds then
      invalid_arg
        (Printf.sprintf
           "Metrics.histogram: %s already registered with other bounds" name);
    h
  | Some _ ->
    invalid_arg
      (Printf.sprintf
         "Metrics.histogram: %s already registered as another type" name)
  | None ->
    let h =
      {
        h_meta = { name; help; labels };
        bounds = Array.copy bounds;
        buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
        h_sum = Atomic.make 0;
        h_count = Atomic.make 0;
        h_exemplar = Atomic.make None;
      }
    in
    registry.items <- Histogram h :: registry.items;
    h

(* ------------------------------------------------------------------ *)
(* Recording (lock-free) *)

let incr c = Atomic.incr c.c_cell

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  ignore (Atomic.fetch_and_add c.c_cell n)

let value c = Atomic.get c.c_cell

let reset_counter c = Atomic.set c.c_cell 0

let set_gauge g v = Atomic.set g.g_cell v

let gauge_value g = Atomic.get g.g_cell

let rec max_gauge g v =
  let cur = Atomic.get g.g_cell in
  if v > cur && not (Atomic.compare_and_set g.g_cell cur v) then max_gauge g v

let observe h v =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    i := !i + 1
  done;
  Atomic.incr h.buckets.(!i);
  ignore (Atomic.fetch_and_add h.h_sum v);
  Atomic.incr h.h_count

(* Keep the max-valued traced observation as the exemplar: a CAS loop
   over an immutable record, so concurrent observers can only lose the
   race to a *larger* value. *)
let rec update_exemplar h ~trace_id v =
  let cur = Atomic.get h.h_exemplar in
  let beats = match cur with None -> true | Some e -> v > e.ex_value in
  if beats
     && not
          (Atomic.compare_and_set h.h_exemplar cur
             (Some { ex_value = v; ex_trace = trace_id }))
  then update_exemplar h ~trace_id v

let observe_ex h ~trace_id v =
  observe h v;
  if trace_id <> 0 then update_exemplar h ~trace_id v

let exemplar_of h =
  match Atomic.get h.h_exemplar with
  | None -> None
  | Some e -> Some (e.ex_value, e.ex_trace)

(* ------------------------------------------------------------------ *)
(* Introspection for snapshots *)

let list_metrics ?(registry = default) () =
  with_registry registry @@ fun () -> List.rev registry.items

let histogram_bounds h = Array.copy h.bounds

let histogram_state h =
  (* read count last: the (counts, sum, count) triple can be mid-update
     under concurrent observers, but each field is monotone, so a
     snapshot is always a valid past state per field *)
  let counts = Array.map Atomic.get h.buckets in
  let sum = Atomic.get h.h_sum in
  let count = Atomic.get h.h_count in
  (counts, sum, count)

let reset_all ?(registry = default) () =
  with_registry registry @@ fun () ->
  List.iter
    (function
      | Counter c -> Atomic.set c.c_cell 0
      | Gauge g -> Atomic.set g.g_cell 0
      | Histogram h ->
        Array.iter (fun b -> Atomic.set b 0) h.buckets;
        Atomic.set h.h_sum 0;
        Atomic.set h.h_count 0;
        Atomic.set h.h_exemplar None)
    registry.items

let json_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf
