type config = {
  rto_init : float;
  rto_min : float;
  rto_max : float;
  backoff : float;
  max_retries : int;
}

(* rto_min of 1 s keeps a freshly measured (tiny) mesh RTT from arming timers
   shorter than the runner's link-failure detection delay: segments stranded
   by a failure are reaped by session teardown at detection time, not raced
   by a retransmission onto a link already known dead. *)
let default_config =
  { rto_init = 1.0; rto_min = 1.0; rto_max = 60.0; backoff = 2.0; max_retries = 6 }

let validate_config c =
  if c.rto_init <= 0. || c.rto_min <= 0. || c.rto_max < c.rto_min then
    Error "rto bounds must satisfy 0 < rto_min <= rto_max, rto_init > 0"
  else if c.backoff < 1. then Error "backoff must be >= 1"
  else if c.max_retries < 1 then Error "max_retries must be >= 1"
  else Ok ()

type 'msg segment =
  | Seg_data of { epoch : int; seq : int; msg : 'msg }
  | Seg_ack of { epoch : int; ack : int }

type event =
  | Retransmit of { seq : int; attempt : int }
  | Timeout of { rto : float; attempt : int }

type stats = {
  s_sent : int;
  s_delivered : int;
  s_retransmissions : int;
  s_timeouts : int;
  s_resets : int;
}

type 'msg entry = {
  e_msg : 'msg;
  mutable e_sent_at : float;
  mutable e_rexmit : bool;
}

type 'msg t = {
  cfg : config;
  sched : Dessim.Scheduler.t;
  send_seg : 'msg segment -> unit;
  deliver : 'msg -> unit;
  on_reset : epoch:int -> unit;
  on_event : event -> unit;
  (* sender *)
  mutable tx_epoch : int;
  mutable base : int;  (* lowest unacknowledged sequence number *)
  mutable next_seq : int;
  unacked : (int, 'msg entry) Hashtbl.t;
  mutable timer : Dessim.Scheduler.handle option;
  mutable attempts : int;  (* consecutive timeouts without forward progress *)
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
  (* receiver *)
  mutable rx_epoch : int;
  mutable rcv_next : int;
  buffer : (int, 'msg) Hashtbl.t;  (* out-of-order segments awaiting the gap *)
  (* session *)
  mutable up : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable resets : int;
}

let create ?(config = default_config) ~sched ~send:send_seg ~deliver ~on_reset
    ~on_event () =
  (match validate_config config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Rtx.create: " ^ msg));
  {
    cfg = config;
    sched;
    send_seg;
    deliver;
    on_reset;
    on_event;
    tx_epoch = 0;
    base = 0;
    next_seq = 0;
    unacked = Hashtbl.create 16;
    timer = None;
    attempts = 0;
    srtt = None;
    rttvar = 0.;
    rto = config.rto_init;
    rx_epoch = 0;
    rcv_next = 0;
    buffer = Hashtbl.create 16;
    up = true;
    sent = 0;
    delivered = 0;
    retransmissions = 0;
    timeouts = 0;
    resets = 0;
  }

let cancel_timer t =
  match t.timer with
  | Some h ->
    Dessim.Scheduler.cancel t.sched h;
    t.timer <- None
  | None -> ()

(* Jacobson's estimator; the caller enforces Karn's rule by sampling only
   segments that were never retransmitted. *)
let rtt_sample t sample =
  (match t.srtt with
  | None ->
    t.srtt <- Some sample;
    t.rttvar <- sample /. 2.
  | Some srtt ->
    let err = sample -. srtt in
    t.srtt <- Some (srtt +. (0.125 *. err));
    t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar)));
  let srtt = Option.get t.srtt in
  t.rto <-
    Float.max t.cfg.rto_min
      (Float.min t.cfg.rto_max (srtt +. (4. *. t.rttvar)))

let clear_session t =
  cancel_timer t;
  Hashtbl.reset t.unacked;
  t.base <- 0;
  t.next_seq <- 0;
  t.attempts <- 0;
  t.srtt <- None;
  t.rttvar <- 0.;
  t.rto <- t.cfg.rto_init

let rec arm t =
  cancel_timer t;
  if t.up && t.base < t.next_seq then
    t.timer <-
      Some
        (Dessim.Scheduler.after t.sched ~delay:t.rto (fun () ->
             t.timer <- None;
             on_timeout t))

and on_timeout t =
  t.timeouts <- t.timeouts + 1;
  t.attempts <- t.attempts + 1;
  t.on_event (Timeout { rto = t.rto; attempt = t.attempts });
  if t.attempts > t.cfg.max_retries then begin
    (* Retry cap: tear the session down and start a new epoch. The owner's
       [on_reset] is expected to bounce the routing session so the protocol
       re-advertises over the fresh epoch. *)
    t.resets <- t.resets + 1;
    clear_session t;
    Hashtbl.reset t.buffer;
    t.tx_epoch <- t.tx_epoch + 1;
    t.on_reset ~epoch:t.tx_epoch
  end
  else begin
    t.rto <- Float.min t.cfg.rto_max (t.rto *. t.cfg.backoff);
    (match Hashtbl.find_opt t.unacked t.base with
    | Some e ->
      e.e_rexmit <- true;
      e.e_sent_at <- Dessim.Scheduler.now t.sched;
      t.retransmissions <- t.retransmissions + 1;
      t.on_event (Retransmit { seq = t.base; attempt = t.attempts });
      t.send_seg (Seg_data { epoch = t.tx_epoch; seq = t.base; msg = e.e_msg })
    | None -> ());
    arm t
  end

let send t msg =
  if t.up then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.sent <- t.sent + 1;
    Hashtbl.replace t.unacked seq
      { e_msg = msg; e_sent_at = Dessim.Scheduler.now t.sched; e_rexmit = false };
    t.send_seg (Seg_data { epoch = t.tx_epoch; seq; msg });
    if t.timer = None then arm t
  end
(* While the session is down, messages are discarded: teardown/re-establish
   semantics, the protocol re-advertises its state on link up. *)

let handle_ack t ~epoch ~ack =
  if t.up && epoch = t.tx_epoch && ack > t.base then begin
    let now = Dessim.Scheduler.now t.sched in
    (* RTT-sample only the gap-filling segment (the old [base], whose arrival
       is what let the cumulative ACK advance), and only if it was never
       retransmitted (Karn). Segments behind it in the acked range may have
       been delivered into the receiver's reorder buffer long ago — their
       (send -> ack) spans include the whole wait for the gap, and feeding
       those into Jacobson's estimator inflates SRTT by orders of magnitude,
       pinning the RTO at [rto_max] exactly when recovery needs it small
       (the timeout-divergence failure mode of Jain 1986). *)
    (match Hashtbl.find_opt t.unacked t.base with
    | Some e when not e.e_rexmit -> rtt_sample t (now -. e.e_sent_at)
    | Some _ | None -> ());
    for seq = t.base to ack - 1 do
      Hashtbl.remove t.unacked seq
    done;
    t.base <- ack;
    t.attempts <- 0;
    (* Forward progress proves the path is alive: collapse any exponential
       backoff back to the estimator's RTO instead of letting a stale
       backed-off value (up to [rto_max]) pace the next loss recovery. With
       no valid sample yet ([srtt = None]) the backed-off value is the only
       evidence there is, so Karn's rule keeps it. *)
    (match t.srtt with
    | Some srtt ->
      t.rto <-
        Float.max t.cfg.rto_min
          (Float.min t.cfg.rto_max (srtt +. (4. *. t.rttvar)))
    | None -> ());
    arm t
  end

let handle_data t ~epoch ~seq msg =
  if t.up then begin
    if epoch > t.rx_epoch then begin
      (* The peer reset its session (retry cap or link bounce): adopt the new
         epoch and restart in-order delivery from zero. *)
      t.rx_epoch <- epoch;
      t.rcv_next <- 0;
      Hashtbl.reset t.buffer
    end;
    if epoch = t.rx_epoch then begin
      if seq = t.rcv_next then begin
        t.deliver msg;
        t.delivered <- t.delivered + 1;
        t.rcv_next <- t.rcv_next + 1;
        let rec drain () =
          match Hashtbl.find_opt t.buffer t.rcv_next with
          | Some m ->
            Hashtbl.remove t.buffer t.rcv_next;
            t.deliver m;
            t.delivered <- t.delivered + 1;
            t.rcv_next <- t.rcv_next + 1;
            drain ()
          | None -> ()
        in
        drain ()
      end
      else if seq > t.rcv_next then Hashtbl.replace t.buffer seq msg;
      (* Duplicates and stale segments still re-ack: the cumulative ACK is
         how a sender whose ACK was lost learns it can advance. *)
      t.send_seg (Seg_ack { epoch = t.rx_epoch; ack = t.rcv_next })
    end
    (* epoch < rx_epoch: stale segment from a torn-down session; drop. *)
  end

let on_segment t = function
  | Seg_data { epoch; seq; msg } -> handle_data t ~epoch ~seq msg
  | Seg_ack { epoch; ack } -> handle_ack t ~epoch ~ack

let link_down t =
  if t.up then begin
    t.up <- false;
    clear_session t;
    Hashtbl.reset t.buffer;
    t.tx_epoch <- t.tx_epoch + 1
  end

let link_up t =
  if not t.up then begin
    t.up <- true;
    t.tx_epoch <- t.tx_epoch + 1
  end

let is_up t = t.up

let rto t = t.rto

let outstanding t = t.next_seq - t.base

let stats t =
  {
    s_sent = t.sent;
    s_delivered = t.delivered;
    s_retransmissions = t.retransmissions;
    s_timeouts = t.timeouts;
    s_resets = t.resets;
  }
