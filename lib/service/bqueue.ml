type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  m : Mutex.t;
  room : Condition.t;
  data : Condition.t;
  mutable closed : bool;
}
[@@lint.guarded_by "m"]

exception Closed

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity < 1";
  {
    capacity;
    q = Queue.create ();
    m = Mutex.create ();
    room = Condition.create ();
    data = Condition.create ();
    closed = false;
  }

let put t x =
  Mutex.lock t.m;
  while (not t.closed) && Queue.length t.q >= t.capacity do
    Condition.wait t.room t.m
  done;
  if t.closed then begin
    Mutex.unlock t.m;
    raise Closed
  end;
  Queue.push x t.q;
  Condition.signal t.data;
  Mutex.unlock t.m

let take t =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.data t.m
  done;
  let r =
    if Queue.is_empty t.q then None
    else begin
      let x = Queue.pop t.q in
      Condition.signal t.room;
      Some x
    end
  in
  Mutex.unlock t.m;
  r

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.data;
  Condition.broadcast t.room;
  Mutex.unlock t.m
