(* A crash flight recorder: per-domain ring buffers of recent
   structured events, dumped as JSONL when something dies.

   PR7's supervisor answers a wedged or crashed worker by abandoning it
   and respawning — which destroys the evidence.  The flight recorder
   keeps the last moments on record: every domain appends cheap
   structured events (request admitted, service started, fault
   tripped, breaker state changed, deadline missed) into its own
   fixed-size ring, and when the supervisor sees a crash, a wedge, or
   the breaker opening it dumps every ring — newest history of the
   whole process — to the configured JSONL file.  The poisoned request
   is the "service-start" with no matching completion.

   Allocation is bounded: the rings are fixed arrays allocated up
   front, each record is one small immutable block, and an event
   beyond a ring's capacity overwrites that ring's oldest.  Recording
   is lock-free — slot claim is an atomic fetch-and-add, the store is
   a single pointer write — so worker domains never contend.  Rings
   are indexed by domain id modulo a fixed count; after many respawns
   two domains may share a ring, which only shortens their common
   history, never corrupts it.

   A global sequence number gives dumps a total order across rings. *)

type event = {
  f_seq : int;  (* global order across all rings *)
  f_t_us : int;  (* wall clock, microseconds since the epoch *)
  f_dom : int;
  f_req : int;  (* request/job id; 0 = none *)
  f_kind : string;
  f_detail : string;
}

let ring_count = 64

let ring_capacity = 256

type ring = { slots : event option array; cur : int Atomic.t }

let rings =
  Array.init ring_count (fun _ ->
      { slots = Array.make ring_capacity None; cur = Atomic.make 0 })
  [@@lint.domain_safe
    "fixed array of rings; slots hold immutable records stored atomically"]

let seq = Atomic.make 0

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let record ?(req = 0) ~kind detail =
  if enabled () then begin
    let dom = (Domain.self () :> int) in
    let ev =
      {
        f_seq = Atomic.fetch_and_add seq 1;
        f_t_us = now_us ();
        f_dom = dom;
        f_req = req;
        f_kind = kind;
        f_detail = detail;
      }
    in
    let ring = rings.(dom mod ring_count) in
    let i = Atomic.fetch_and_add ring.cur 1 in
    ring.slots.(i mod ring_capacity) <- Some ev
  end

let clear () =
  Array.iter
    (fun r ->
      Array.fill r.slots 0 ring_capacity None;
      Atomic.set r.cur 0)
    rings;
  Atomic.set seq 0

(* ------------------------------------------------------------------ *)
(* Rendering *)

let events () =
  Array.to_list rings
  |> List.concat_map (fun r -> Array.to_list r.slots)
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.f_seq b.f_seq)

let events_recorded () = List.length (events ())

let event_line ev =
  Printf.sprintf
    "{\"seq\":%d,\"t_us\":%d,\"dom\":%d,\"req\":%d,\"kind\":\"%s\",\"detail\":\"%s\"}"
    ev.f_seq ev.f_t_us ev.f_dom ev.f_req (Metrics.json_escape ev.f_kind)
    (Metrics.json_escape ev.f_detail)

let to_jsonl ?reason () =
  let buf = Buffer.create 4096 in
  let evs = events () in
  (match reason with
  | Some r ->
    Buffer.add_string buf
      (Printf.sprintf
         "{\"flight_dump\":true,\"reason\":\"%s\",\"t_us\":%d,\"events\":%d}\n"
         (Metrics.json_escape r) (now_us ()) (List.length evs))
  | None -> ());
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_line ev);
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Dumping

   The dump path is configured once by the binary (bdprintd --flight,
   BDPRINT_FLIGHT); dumps append, so a chaos run that trips several
   crashes leaves each post-mortem in order.  The mutex only serializes
   dump writes — recording stays lock-free. *)

let dump_lock = Mutex.create ()

let dump_path = ref None [@@lint.guarded_by "dump_lock"]

let dumps_written = Atomic.make 0

let set_dump_path p =
  Mutex.lock dump_lock;
  dump_path := p;
  Mutex.unlock dump_lock

let dump ~reason =
  if enabled () then begin
    Mutex.lock dump_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock dump_lock)
      (fun () ->
        match !dump_path with
        | None -> ()
        | Some path ->
          let oc =
            open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
          in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (to_jsonl ~reason ());
              Atomic.incr dumps_written))
  end
[@@lint.blocking_ok
  "crash-dump writes hold dump_lock deliberately: the process is dying and \
   the lock serialises the one append so records interleave whole"]

let dump_count () = Atomic.get dumps_written
