type t = {
  m : Mutex.t;
  tbl : (string, string) Hashtbl.t;
  ring : string array;  (** keys in insertion order, for FIFO eviction *)
  mutable pos : int;  (** the slot the next new key takes *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;  (** new-key inserts (grew or evicted) *)
  mutable replacements : int;  (** in-place updates of an existing key *)
}
[@@lint.guarded_by "m"]

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  insertions : int;
  replacements : int;
  capacity : int;
}

let m_hits =
  Telemetry.Metrics.counter ~help:"Hot-value cache hits."
    "bdprintd_cache_hits_total"

let m_misses =
  Telemetry.Metrics.counter ~help:"Hot-value cache misses."
    "bdprintd_cache_misses_total"

let m_evictions =
  Telemetry.Metrics.counter
    ~help:"Hot-value cache FIFO evictions (insertions into a full cache)."
    "bdprintd_cache_evictions_total"

let create ~capacity =
  (if capacity < 1 then invalid_arg "Memo.create: capacity < 1")
  [@lint.can_raise Invalid_argument];
  {
    m = Mutex.create ();
    tbl = Hashtbl.create (min capacity 64);
    ring = Array.make capacity "";
    pos = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
    replacements = 0;
  }

let find t key =
  Mutex.lock t.m;
  let r = Hashtbl.find_opt t.tbl key in
  (match r with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.m;
  (if Telemetry.Metrics.enabled () then
     Telemetry.Metrics.incr (match r with Some _ -> m_hits | None -> m_misses));
  r

(* Every key in [tbl] owns one ring slot, so the table is full exactly
   when it has as many keys as the ring has slots, and then the slot at
   [pos] holds the oldest key. *)
let add t key value =
  Mutex.lock t.m;
  let evicted =
    if Hashtbl.mem t.tbl key then begin
      (* replace in place: the ring slot it already owns stays valid *)
      Hashtbl.replace t.tbl key value;
      t.replacements <- t.replacements + 1;
      false
    end
    else begin
      let full = Hashtbl.length t.tbl = Array.length t.ring in
      if full then begin
        Hashtbl.remove t.tbl t.ring.(t.pos);
        t.evictions <- t.evictions + 1
      end;
      t.insertions <- t.insertions + 1;
      t.ring.(t.pos) <- key;
      t.pos <- (t.pos + 1) mod Array.length t.ring;
      Hashtbl.add t.tbl key value;
      full
    end
  in
  Mutex.unlock t.m;
  if evicted && Telemetry.Metrics.enabled () then
    Telemetry.Metrics.incr m_evictions

let stats t =
  Mutex.lock t.m;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      entries = Hashtbl.length t.tbl;
      evictions = t.evictions;
      insertions = t.insertions;
      replacements = t.replacements;
      capacity = Array.length t.ring;
    }
  in
  Mutex.unlock t.m;
  s
