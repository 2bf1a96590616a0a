(* Outstanding units (accepted, not yet delivered or dropped) sit in a FIFO
   ring, oldest first: the [flying] units that finished transmission, then
   the [queue_len] units still queued. Both event streams a link schedules
   are FIFO: each transmission starts when the previous one finishes, so
   finish times never decrease; arrivals follow them by the one propagation
   delay; and equal times pop in push order. So the transmit-done handler
   always serves the oldest queued unit and the arrival handler the oldest
   flying one, and neither event has to name its unit: both carry the link
   itself to a handler registered once per link.

   Unit [i] (0 = oldest) occupies the two words at [slot t i]: its payload,
   then the cancellation handle of its pending event (what [fail] needs).
   Vacated words hold the immediate [empty], as the scheduler's free cells
   do, so the link never pins a payload it has delivered or dropped. *)
type 'a t = {
  sched : Dessim.Scheduler.t;
  bandwidth_bps : float;
  prop_delay : float;
  queue_capacity : int;
  deliver : 'a -> unit;
  dropped : 'a -> Types.drop_reason -> unit;
  mutable up : bool;
  mutable busy_until : float;
  mutable queue_len : int;
  mutable flying : int;
  mutable ring : Obj.t array;  (* 2 words per unit; length 0 or a power of 2 *)
  mutable head : int;  (* word index of the oldest unit *)
  mutable next_token : int;  (* units accepted since creation *)
  mutable buckets : int;  (* see [victim_order] *)
  transmitted_tag : 'a t Dessim.Scheduler.tag;
  arrived_tag : 'a t Dessim.Scheduler.tag;
}

type send_result = Sent | Rejected of Types.drop_reason

let empty = Obj.repr 0

let initial_buckets = 32

let slot t i = (t.head + (2 * i)) land (Array.length t.ring - 1)

(* Called only when the ring is full, so every word of it is live. *)
let grow t =
  let old = t.ring in
  let len = Array.length old in
  let ring = Array.make (if len = 0 then 16 else 2 * len) empty in
  Array.blit old t.head ring 0 (len - t.head);
  Array.blit old 0 ring (len - t.head) t.head;
  t.ring <- ring;
  t.head <- 0

let arrived t =
  let w = t.head in
  let x = t.ring.(w) in
  t.ring.(w) <- empty;
  t.ring.(w + 1) <- empty;
  t.head <- (w + 2) land (Array.length t.ring - 1);
  t.flying <- t.flying - 1;
  t.deliver (Obj.obj x)

let transmitted t =
  let w = slot t t.flying in
  t.queue_len <- t.queue_len - 1;
  t.flying <- t.flying + 1;
  let h =
    Dessim.Scheduler.after_tag_h t.sched ~delay:t.prop_delay t.arrived_tag t
  in
  t.ring.(w + 1) <- Obj.repr h

let create ~sched ~bandwidth_bps ~prop_delay ~queue_capacity ~deliver ~dropped
    () =
  if bandwidth_bps <= 0. then invalid_arg "Link.create: bandwidth";
  if prop_delay < 0. then invalid_arg "Link.create: prop_delay";
  if queue_capacity <= 0 then invalid_arg "Link.create: queue_capacity";
  let transmitted_tag = Dessim.Scheduler.register sched transmitted in
  let arrived_tag = Dessim.Scheduler.register sched arrived in
  {
    sched;
    bandwidth_bps;
    prop_delay;
    queue_capacity;
    deliver;
    dropped;
    up = true;
    busy_until = 0.;
    queue_len = 0;
    flying = 0;
    ring = [||];
    head = 0;
    next_token = 0;
    buckets = initial_buckets;
    transmitted_tag;
    arrived_tag;
  }

let is_up t = t.up

let queue_length t = t.queue_len

let in_flight t = t.flying

let utilization_busy_until t = t.busy_until

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
    let tx_time = float_of_int size_bits /. t.bandwidth_bps in
    let h =
      if t.busy_until <= now then begin
        (* Idle: the transmission starts now, so a recurring packet size is
           a recurring delay and its events ride a timing lane. *)
        t.busy_until <- now +. tx_time;
        Dessim.Scheduler.after_tag_h t.sched ~delay:tx_time t.transmitted_tag t
      end
      else begin
        let finish = t.busy_until +. tx_time in
        t.busy_until <- finish;
        Dessim.Scheduler.schedule_tag_h t.sched ~at:finish t.transmitted_tag t
      end
    in
    let n = t.queue_len + t.flying in
    if 2 * n = Array.length t.ring then grow t;
    let w = slot t n in
    t.ring.(w) <- Obj.repr payload;
    t.ring.(w + 1) <- Obj.repr h;
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
    let ring = t.ring and head = t.head in
    t.ring <- [||];
    t.head <- 0;
    t.queue_len <- 0;
    t.flying <- 0;
    t.buckets <- initial_buckets;
    t.busy_until <- Dessim.Scheduler.now t.sched;
    let drop_one i =
      let w = (head + (2 * i)) land (Array.length ring - 1) in
      Dessim.Scheduler.cancel (Obj.obj ring.(w + 1));
      t.dropped (Obj.obj ring.(w)) Types.Link_down
    in
    List.iter drop_one order
  end

let restore t =
  if not t.up then begin
    t.up <- true;
    t.busy_until <- Dessim.Scheduler.now t.sched
  end
