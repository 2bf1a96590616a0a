(* The hash-table link, kept verbatim as a differential oracle.

   This is the [Netsim.Link] implementation the simulator shipped with before
   the FIFO-ring rewrite: one placeholder event, one token-table entry, a
   pending record and two closures per send. The property tests drive
   identical op streams through this link and [Netsim.Link], each on its own
   scheduler, and require identical delivered/dropped logs (payload, reason,
   time and order) and identical occupancy counters after every op — the
   ring is an optimization, never a behavior change. In particular [fail]
   here drops its victims in reverse [Hashtbl.fold] order, which the ring
   must reproduce.

   Only the [Types] alias below is new: the body refers to the netsim
   library's [Types] from the inside. *)

module Types = Netsim.Types

type 'a pending = {
  payload : 'a;
  mutable handle : Dessim.Scheduler.handle;
  mutable queued : bool;  (* still occupying the FIFO (not yet transmitted) *)
}

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
  outstanding : (int, 'a pending) Hashtbl.t;
  mutable next_token : int;
}

type send_result = Sent | Rejected of Types.drop_reason

let create ~sched ~bandwidth_bps ~prop_delay ~queue_capacity ~deliver ~dropped
    () =
  if bandwidth_bps <= 0. then invalid_arg "Link.create: bandwidth";
  if prop_delay < 0. then invalid_arg "Link.create: prop_delay";
  if queue_capacity <= 0 then invalid_arg "Link.create: queue_capacity";
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
    outstanding = Hashtbl.create 32;
    next_token = 0;
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
    let start = Float.max now t.busy_until in
    let tx_time = float_of_int size_bits /. t.bandwidth_bps in
    let finish = start +. tx_time in
    t.busy_until <- finish;
    t.queue_len <- t.queue_len + 1;
    let token = t.next_token in
    t.next_token <- token + 1;
    (* Placeholder handle, replaced immediately below. *)
    let pending =
      { payload; handle = Dessim.Scheduler.after t.sched ~delay:0. (fun () -> ()); queued = true }
    in
    Dessim.Scheduler.cancel t.sched pending.handle;
    Hashtbl.replace t.outstanding token pending;
    let arrive () =
      Hashtbl.remove t.outstanding token;
      t.flying <- t.flying - 1;
      t.deliver payload
    in
    let transmitted () =
      pending.queued <- false;
      t.queue_len <- t.queue_len - 1;
      t.flying <- t.flying + 1;
      pending.handle <- Dessim.Scheduler.after t.sched ~delay:t.prop_delay arrive
    in
    pending.handle <- Dessim.Scheduler.schedule t.sched ~at:finish transmitted;
    Sent
  end

let fail t =
  if t.up then begin
    t.up <- false;
    let victims = Hashtbl.fold (fun _ p acc -> p :: acc) t.outstanding [] in
    Hashtbl.reset t.outstanding;
    t.queue_len <- 0;
    t.flying <- 0;
    t.busy_until <- Dessim.Scheduler.now t.sched;
    let drop_one p =
      Dessim.Scheduler.cancel t.sched p.handle;
      t.dropped p.payload Types.Link_down
    in
    List.iter drop_one victims
  end

let restore t =
  if not t.up then begin
    t.up <- true;
    t.busy_until <- Dessim.Scheduler.now t.sched
  end
