let pipeline_points = [ "nat.divmod"; "nat.pow"; "scaling.power"; "scaling.scale" ]

(* Network/service-layer points are consumed through {!fires}, which
   reports the draw to the call site instead of raising, because a
   network fault is an *effect* (a stalled write, a corrupted frame, a
   dead worker domain), not a structured pipeline error. *)
let net_points =
  [
    "service.worker-kill";
    "service.worker-wedge";
    "net.slow-client";
    "net.partial-write";
    "net.malformed-frame";
    "net.daemon-restart";
  ]

let points = pipeline_points @ net_points

(* A point fires either probabilistically (each consult draws
   independently) or on a fixed schedule: [At_call k] fires exactly on
   the k-th consult of that point since process start (or the last
   {!reset_call_counts}), making a chaos failure replayable without any
   RNG state — the schedule IS the reproduction recipe. *)
type schedule = Probability of float | At_call of int

type arming = { point : string; schedule : schedule }

(* The armed set is tiny and read from every domain on every trip-site
   call; an atomic holding an immutable list keeps the disarmed-path
   cost of [trip] to a single load and branch while staying safe under
   concurrent arm/disarm from tests. *)
let armed_points : arming list Atomic.t = Atomic.make []
let armed_count = Atomic.make 0

let sync set =
  Atomic.set armed_points set;
  Atomic.set armed_count (List.length set)

(* Unknown-point reporting: each unknown name warns exactly once per
   process however many times it is re-encountered (startup spec
   parsing, repeated [arm] calls from tests), and the distinct-name
   total is exported so a metrics snapshot can prove that a typo'd
   BDPRINT_FAULTS entry was noticed rather than silently ignored. *)
let m_unknown_points =
  Telemetry.Metrics.counter
    ~help:"Distinct unknown fault-point names rejected from BDPRINT_FAULTS \
           or programmatic arming (each name counted once)."
    "bdprint_faults_unknown_points"

let warned_unknown : string list Atomic.t = Atomic.make []

let warn_unknown entry =
  let rec register () =
    let seen = Atomic.get warned_unknown in
    if List.mem entry seen then false
    else if Atomic.compare_and_set warned_unknown seen (entry :: seen) then true
    else register ()
  in
  if register () then begin
    Telemetry.Metrics.incr m_unknown_points;
    Printf.eprintf
      "bdprint: warning: unknown or malformed fault entry %S ignored (known \
       points: %s)\n\
       %!"
      entry
      (String.concat ", " points)
  end

let unknown_points () = List.rev (Atomic.get warned_unknown)

let set_schedule name schedule =
  if not (List.mem name points) then warn_unknown name
  else begin
    let rest =
      List.filter
        (fun a -> not (String.equal a.point name))
        (Atomic.get armed_points)
    in
    sync ({ point = name; schedule } :: rest)
  end

let arm ?(probability = 1.0) name = set_schedule name (Probability probability)

let arm_at ~call name =
  if call < 1 then warn_unknown (Printf.sprintf "%s@req=%d" name call)
  else set_schedule name (At_call call)

let disarm name =
  sync
    (List.filter (fun a -> not (String.equal a.point name)) (Atomic.get armed_points))

let disarm_all () = sync []

let armed name =
  List.exists (fun a -> String.equal a.point name) (Atomic.get armed_points)

let any_armed () = Atomic.get armed_count > 0

let probability name =
  List.find_map
    (fun a ->
      match a with
      | { point; schedule = Probability p } when String.equal point name ->
        Some p
      | _ -> None)
    (Atomic.get armed_points)

let schedule_of name =
  List.find_map
    (fun a -> if String.equal a.point name then Some a.schedule else None)
    (Atomic.get armed_points)

(* Render the armed set back into the BDPRINT_FAULTS grammar, so a
   chaos harness can log (or upload as an artifact) the exact schedule
   that produced a failure. *)
let spec_string () =
  Atomic.get armed_points
  |> List.rev_map (fun a ->
         match a.schedule with
         | Probability p when p >= 1.0 -> a.point
         | Probability p -> Printf.sprintf "%s:%g" a.point p
         | At_call k -> Printf.sprintf "%s@req=%d" a.point k)
  |> String.concat ","

(* Per-point trip counters, atomic so chaos tests can count injections
   across all worker domains.  They live in the telemetry registry
   (always-on: chaos runs must see them with or without --metrics), so
   a metrics snapshot can assert injection actually fired. *)
let counters =
  List.map
    (fun p ->
      ( p,
        Telemetry.Metrics.counter
          ~labels:[ ("point", p) ]
          ~help:"Injected-fault trips per instrumented point."
          "bdprint_fault_trips_total" ))
    points

let trip_count name =
  match List.assoc_opt name counters with
  | Some c -> Telemetry.Metrics.value c
  | None -> 0

let trip_counts () =
  List.map (fun (p, c) -> (p, Telemetry.Metrics.value c)) counters

let total_trips () =
  List.fold_left (fun acc (_, c) -> acc + Telemetry.Metrics.value c) 0 counters

let reset_trip_counts () =
  List.iter (fun (_, c) -> Telemetry.Metrics.reset_counter c) counters

(* Per-point consult counters drive the [At_call k] schedules: every
   {!trip}/{!fires} consult of a scheduled point increments its counter
   atomically, and the fault fires exactly when the counter reaches k.
   Unlike the RNG draws these are shared across domains, so a schedule
   replays identically as long as the request order it keys on does. *)
let call_counters = List.map (fun p -> (p, Atomic.make 0)) points

let call_count name =
  match List.assoc_opt name call_counters with
  | Some c -> Atomic.get c
  | None -> 0

let reset_call_counts () =
  List.iter (fun (_, c) -> Atomic.set c 0) call_counters

(* Probabilistic trips draw from a domain-local generator so worker
   domains never contend (or share a stream).  Seeding is deterministic
   per domain-spawn order; BDPRINT_FAULTS_SEED perturbs the whole run —
   chaos harnesses print it, so a failing run can be replayed exactly. *)
let seed =
  let env = Sys.getenv_opt "BDPRINT_FAULTS_SEED" in
  match Option.bind env int_of_string_opt with Some n -> n | None -> 0x6bd

let domain_seq = Atomic.make 0

let rng =
  Domain.DLS.new_key (fun () ->
      Random.State.make [| seed; Atomic.fetch_and_add domain_seq 1 |])

(* Decision shared by [trip] and [fires]: is the point armed, and does
   this consult's probability draw (or call-count schedule) fire? *)
let draw name =
  if Atomic.get armed_count = 0 then false
  else
    match
      List.find_opt
        (fun a -> String.equal a.point name)
        (Atomic.get armed_points)
    with
    | None -> false
    | Some { schedule = Probability p; _ } ->
      p >= 1.0 || Random.State.float (Domain.DLS.get rng) 1.0 < p
    | Some { schedule = At_call k; _ } -> (
      match List.assoc_opt name call_counters with
      | Some c -> 1 + Atomic.fetch_and_add c 1 = k
      | None -> false)
[@@lint.alloc_ok
  "the armed_count = 0 early exit is allocation-free; the closure and \
   random draw below it only run when fault points are armed (chaos runs)"]

let count_trip name =
  (match List.assoc_opt name counters with
  | Some c -> Telemetry.Metrics.incr c
  | None -> ());
  if Telemetry.Flight.enabled () then
    Telemetry.Flight.record ~kind:"fault-trip" name
[@@lint.alloc_ok "runs only when an armed fault point actually fires"]

(* Only fire under a boundary guard: the instrumented kernels also run
   during module initialisation of dependent libraries (precomputed
   constants), where there is no [catch] to absorb the failure and a
   trip would abort the program before [main]. *)
let trip name =
  if Error.in_guarded_region () && draw name then begin
    count_trip name;
    Error.raise_ (Error.internal ~where:name "injected fault")
  end

(* Network-layer points report the draw instead of raising: the call
   site performs the fault itself (stall a write, corrupt a frame, kill
   a worker domain), so there is no structured error to throw and no
   boundary guard to require. *)
let fires name =
  let fired = draw name in
  if fired then count_trip name;
  fired

let with_fault ?probability name f =
  arm ?probability name;
  Fun.protect ~finally:(fun () -> disarm name) f

(* BDPRINT_FAULTS grammar: comma-separated entries, each a bare point
   name (deterministic, probability 1), name:probability for transient
   faults, or name@req=k for a replayable schedule (fire exactly on the
   k-th consult of the point).  Unknown names, malformed probabilities
   and malformed schedules are collected rather than silently dropped. *)
let parse_spec spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let armed, bad =
    List.fold_left
      (fun (armed, bad) entry ->
        let name, sched =
          match (String.index_opt entry ':', String.index_opt entry '@') with
          | _, Some i ->
            let name = String.sub entry 0 i in
            let s = String.sub entry (i + 1) (String.length entry - i - 1) in
            ( name,
              if String.length s > 4 && String.sub s 0 4 = "req=" then
                match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
                | Some k when k >= 1 -> Some (At_call k)
                | _ -> None
              else None )
          | Some i, None ->
            let name = String.sub entry 0 i in
            let p = String.sub entry (i + 1) (String.length entry - i - 1) in
            ( name,
              match float_of_string_opt p with
              | Some p when p >= 0.0 && p <= 1.0 -> Some (Probability p)
              | _ -> None )
          | None, None -> (entry, Some (Probability 1.0))
        in
        match sched with
        | None -> (armed, entry :: bad)
        | Some s ->
          if List.mem name points then ((name, s) :: armed, bad)
          else (armed, entry :: bad))
      ([], []) entries
  in
  (List.rev armed, List.rev bad)

let () =
  match Sys.getenv_opt "BDPRINT_FAULTS" with
  | None | Some "" -> ()
  | Some spec ->
    let to_arm, unknown = parse_spec spec in
    List.iter (fun (name, schedule) -> set_schedule name schedule) to_arm;
    List.iter warn_unknown unknown
