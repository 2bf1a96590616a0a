(* Outstanding units (accepted, not yet delivered or dropped) sit in a FIFO
   ring, oldest first: the [flying] units that finished transmission, then
   the [queue_len] units still queued. Both event streams a link schedules
   are FIFO: each transmission starts when the previous one finishes, so
   finish times never decrease; arrivals follow them by the one propagation
   delay; and equal times pop in push order. So the transmit-done handler
   always serves the oldest queued unit and the arrival handler the oldest
   flying one, and neither event has to name its unit. Each link registers
   its two handlers once, as closures over the link itself, so its events
   carry the immediate [()] and the scheduler stores no pointer for them.

   Unit [i] (0 = oldest) occupies index [slot t i] of two parallel arrays:
   [payloads] holds the payload, [handles] the immediate handle of the
   unit's pending event (what [fail] needs). A vacated payload slot holds
   [empty], so the link never pins a payload it has delivered or dropped. *)

(* The transmitter's idle time, alone in an all-float record so that
   updating it is an unboxed store. *)
type busy = { mutable until : float }

type 'a t = {
  sched : Dessim.Scheduler.t;
  bandwidth_bps : float;
  prop_delay : float;
  queue_capacity : int;
  deliver : 'a -> unit;
  dropped : 'a -> Types.drop_reason -> unit;
  mutable up : bool;
  busy : busy;
  mutable queue_len : int;
  mutable flying : int;
  (* Both of length 0 or the same power of 2. *)
  mutable payloads : Obj.t array;
  mutable handles : Dessim.Scheduler.handle array;
  mutable head : int;  (* index of the oldest unit *)
  mutable next_token : int;  (* units accepted since creation *)
  mutable buckets : int;  (* see [victim_order] *)
  (* The transmission time of the last size sent, so a recurring size
     costs no division. *)
  mutable tx_bits : int;
  mutable tx_time : float;
  transmitted_tag : unit Dessim.Scheduler.tag;
  arrived_tag : unit Dessim.Scheduler.tag;
}

type send_result = Sent | Rejected of Types.drop_reason

let empty = Obj.repr 0

let initial_buckets = 32

let slot t i = (t.head + i) land (Array.length t.handles - 1)

(* Called only when the ring is full, so every slot of it is live. [h]
   fills the new handle slots: any handle will do, they are written before
   they are read. *)
let grow t h =
  let len = Array.length t.handles in
  let ncap = if len = 0 then 16 else 2 * len in
  let unroll old fill =
    let a = Array.make ncap fill in
    Array.blit old t.head a 0 (len - t.head);
    Array.blit old 0 a (len - t.head) t.head;
    a
  in
  t.payloads <- unroll t.payloads empty;
  t.handles <- unroll t.handles h;
  t.head <- 0

let arrived t =
  let i = t.head in
  let x = Array.unsafe_get t.payloads i in
  Array.unsafe_set t.payloads i empty;
  t.head <- (i + 1) land (Array.length t.handles - 1);
  t.flying <- t.flying - 1;
  t.deliver (Obj.obj x)

let transmitted t =
  let i = slot t t.flying in
  t.queue_len <- t.queue_len - 1;
  t.flying <- t.flying + 1;
  Array.unsafe_set t.handles i
    (Dessim.Scheduler.after_tag_h t.sched ~delay:t.prop_delay t.arrived_tag ())

let create ~sched ~bandwidth_bps ~prop_delay ~queue_capacity ~deliver ~dropped
    () =
  if bandwidth_bps <= 0. then invalid_arg "Link.create: bandwidth";
  if prop_delay < 0. then invalid_arg "Link.create: prop_delay";
  if queue_capacity <= 0 then invalid_arg "Link.create: queue_capacity";
  (* The handlers are registered before the link record that keeps their
     tags exists, so they reach it through [self], set just below. *)
  let self = ref None in
  let transmitted_tag =
    Dessim.Scheduler.register sched (fun () -> Option.iter transmitted !self)
  in
  let arrived_tag =
    Dessim.Scheduler.register sched (fun () -> Option.iter arrived !self)
  in
  let t =
    {
      sched;
      bandwidth_bps;
      prop_delay;
      queue_capacity;
      deliver;
      dropped;
      up = true;
      busy = { until = 0. };
      queue_len = 0;
      flying = 0;
      payloads = [||];
      handles = [||];
      head = 0;
      next_token = 0;
      buckets = initial_buckets;
      tx_bits = -1;
      tx_time = 0.;
      transmitted_tag;
      arrived_tag;
    }
  in
  self := Some t;
  t

let is_up t = t.up

let queue_length t = t.queue_len

let in_flight t = t.flying

let utilization_busy_until t = t.busy.until

let send t ?(reliable = false) ~size_bits payload =
  if not t.up then begin
    t.dropped payload Types.Link_down;
    Rejected Types.Link_down
  end
  else if t.queue_len >= t.queue_capacity && not reliable then begin
    t.dropped payload Types.Queue_overflow;
    Rejected Types.Queue_overflow
  end
  else begin
    let now = Dessim.Scheduler.now t.sched in
    if size_bits <> t.tx_bits then begin
      t.tx_bits <- size_bits;
      t.tx_time <- float_of_int size_bits /. t.bandwidth_bps
    end;
    let busy = t.busy in
    let h =
      if busy.until <= now then begin
        (* Idle: the transmission starts now, so a recurring packet size is
           a recurring delay and its events ride a timing lane. *)
        busy.until <- now +. t.tx_time;
        Dessim.Scheduler.after_tag_h t.sched ~delay:t.tx_time t.transmitted_tag ()
      end
      else begin
        let finish = busy.until +. t.tx_time in
        busy.until <- finish;
        Dessim.Scheduler.schedule_tag_h t.sched ~at:finish t.transmitted_tag ()
      end
    in
    let n = t.queue_len + t.flying in
    if n = Array.length t.handles then grow t h;
    let i = slot t n in
    Array.unsafe_set t.payloads i (Obj.repr payload);
    Array.unsafe_set t.handles i h;
    t.queue_len <- t.queue_len + 1;
    t.next_token <- t.next_token + 1;
    if n + 1 > 2 * t.buckets then t.buckets <- 2 * t.buckets;
    Sent
  end

(* The order in which [fail] drops its victims, as ring indices. Drops at
   one instant are observable (the trace, the [dropped] callback's side
   effects), and the committed traces and artifacts fix their order: the
   hash-table link this ring replaced kept each outstanding unit in a
   [Hashtbl] keyed by its acceptance number (token) and dropped them in
   reverse [Hashtbl.fold] order. That order depends only on the keys
   present and the bucket count. The keys are always the contiguous range
   ending at [next_token], because units leave in FIFO order; the bucket
   count was 32 after [create] or [fail] and doubled whenever the table
   held more than twice its bucket count, which [buckets] tracks. The range
   never exceeds twice [buckets], so replaying it into a fresh table of
   that size never resizes and reproduces the order exactly. *)
let victim_order t n =
  let table = Hashtbl.create t.buckets in
  for i = 0 to n - 1 do
    Hashtbl.replace table (t.next_token - n + i) i
  done;
  Hashtbl.fold (fun _ i acc -> i :: acc) table []

let fail t =
  if t.up then begin
    t.up <- false;
    let order = victim_order t (t.queue_len + t.flying) in
    (* Empty the link before any callback runs: a [dropped] callback sees
       it down and empty, and one that restores it and sends fills a fresh
       ring instead of overwriting victims not yet dropped. *)
    let payloads = t.payloads and handles = t.handles and head = t.head in
    t.payloads <- [||];
    t.handles <- [||];
    t.head <- 0;
    t.queue_len <- 0;
    t.flying <- 0;
    t.buckets <- initial_buckets;
    t.busy.until <- Dessim.Scheduler.now t.sched;
    let drop_one i =
      let w = (head + i) land (Array.length handles - 1) in
      Dessim.Scheduler.cancel t.sched handles.(w);
      t.dropped (Obj.obj payloads.(w)) Types.Link_down
    in
    List.iter drop_one order
  end

let restore t =
  if not t.up then begin
    t.up <- true;
    t.busy.until <- Dessim.Scheduler.now t.sched
  end
