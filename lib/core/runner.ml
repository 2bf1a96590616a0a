let path_kind_of = function
  | Observer.Complete _ -> Obs.Event.Path_complete
  | Observer.Broken _ -> Obs.Event.Path_broken
  | Observer.Looping _ -> Obs.Event.Path_looping

let msg_kind_of = function
  | Protocols.Proto_intf.Update -> Obs.Event.Update
  | Protocols.Proto_intf.Withdrawal -> Obs.Event.Withdrawal
  | Protocols.Proto_intf.Mixed -> Obs.Event.Mixed

type transport_config = {
  window : int;
  rto : float;
  total_packets : int;
  ack_bytes : int;
}

let default_transport =
  { window = 16; rto = 1.; total_packets = 0; ack_bytes = 40 }

type traffic = Cbr of float option | Transfer of transport_config

type flow_spec = {
  flow_src : Netsim.Types.node_id option;
  flow_dst : Netsim.Types.node_id option;
  flow_traffic : traffic;
  flow_start : float option;
}

let default_flow =
  { flow_src = None; flow_dst = None; flow_traffic = Cbr None; flow_start = None }

type failure_target =
  | Flow_path of int
  | Link of Netsim.Types.node_id * Netsim.Types.node_id
  | Random_link

type failure_spec = {
  fail_at : float;
  target : failure_target;
  heal_after : float option;
}

(* A protocol-agnostic snapshot of the control plane at the end of a run,
   handed to the [?on_quiesce] hook. The check library's differential oracle
   compares it against an independent shortest-path computation. *)
type routing_view = {
  rv_topology : Netsim.Topology.t;
      (* the surviving topology: links currently down are removed *)
  rv_next_hop :
    src:Netsim.Types.node_id -> dst:Netsim.Types.node_id ->
    Netsim.Types.node_id option;
  rv_metric :
    src:Netsim.Types.node_id -> dst:Netsim.Types.node_id -> int option;
  rv_backup :
    (src:Netsim.Types.node_id -> dst:Netsim.Types.node_id ->
     Netsim.Types.node_id option)
    option;
      (* installed fast-reroute backup next hops; [None] when frr is off *)
}

module Make (P : Protocols.Proto_intf.PROTOCOL) = struct
  (* Every data packet carries a handler deciding what its delivery or loss
     means: a flow's packets are counted, a transfer's data packets then run
     the receiver's logic, and its ACKs run only the sender's. The handler
     rides in the payload itself, so forwarding never touches a lookup
     table. *)
  type packet_handler = {
    h_deliver : Netsim.Packet.t -> unit;
    h_drop : Netsim.Packet.t -> Netsim.Types.drop_reason -> unit;
  }

  (* A data packet in flight. Allocated once at launch and threaded through
     every hop unchanged — forwarding re-sends this very value, so a hop
     allocates nothing beyond the link's own bookkeeping. *)
  type data = { d_pkt : Netsim.Packet.t; d_handler : packet_handler }

  type payload =
    | Data of data
    | Ctrl of { from : Netsim.Types.node_id; msg : P.message }
    | Rseg of { from : Netsim.Types.node_id; seg : P.message Fault.Rtx.segment }
        (* a reliable-transport segment; only exists when [Fault.Spec.rtx]
           is enabled for a [uses_reliable_transport] protocol *)

  (* Per-flow measurement state. *)
  type flow_state = {
    idx : int;
    src : Netsim.Types.node_id;
    dst : Netsim.Types.node_id;
    traffic : traffic;
    start : float;
    mutable sent : int;
    mutable delivered : int;
    mutable drops_no_route : int;
    mutable drops_ttl : int;
    mutable drops_queue : int;
    mutable drops_link : int;
    mutable drops_injected : int;
    mutable looped_delivered : int;
    mutable looped_dropped : int;
    throughput : Dessim.Series.t;
    delay : Dessim.Series.t;
    mutable path_samples : (float * Observer.path_result) list;  (* newest first *)
    mutable pre_failure_path : Netsim.Types.node_id list;
    mutable loop_since : (float * Netsim.Types.node_id list) option;
        (* the sampled path is currently inside this cycle, since this time *)
    mutable transfer : Metrics.transfer option;  (* [Transfer] flows only *)
  }

  type state = {
    cfg : Config.t;
    sched : Dessim.Scheduler.t;
    topo : Netsim.Topology.t;
        (* every per-link table below is indexed by this topology's
           directed-link slots ([Netsim.Topology.slot]) *)
    mutable links : payload Netsim.Link.t array;  (* per slot [u -> v] *)
    mutable routers : P.t array;
    flows : flow_state array;
    trace : Obs.Trace.t;
    metrics : Obs.Registry.t option;
    delay_hist : Obs.Registry.histogram option;
    mutable ctrl_messages : int;
    mutable ctrl_bytes : int;
    mutable ctrl_lost : int;
    mutable first_failure_at : float option;
    mutable last_route_change : float;
    mutable failed_links : (int * int) list;  (* newest first *)
    mutable next_packet_id : int;
    (* fault injection; all inert when [faults] is [Fault.Spec.none] *)
    faults : Fault.Spec.t;
    rtx_on : bool;  (* route control messages through Fault.Rtx sessions *)
    mutable rtx_sessions : P.message Fault.Rtx.t array;
        (* per slot [a -> b]: [a]'s session toward [b]; [||] unless [rtx_on] *)
    down_causes : int array;
        (* per undirected link, at the slot of [min u v -> max u v]:
           concurrent down causes (flap + crash compose) *)
    generation : int array;  (* protocol instance generation, bumped on crash *)
    crashed : bool array;
    mutable injected_data_drops : int;
    mutable injected_ctrl_drops : int;
    (* per-category event counts for the perf harness *)
    mutable timer_fires : int;
    mutable data_forwards : int;
    (* fast reroute; [None] leaves every pre-existing code path untouched *)
    frr : Frr.t option;
    mutable frr_installs : int;
    mutable frr_activations : int;
    mutable frr_forwards : int;
    mutable frr_exhausted : int;
  }

  (* Slot of directed link [u -> v]: a binary search over [u]'s row. *)
  let link_slot st u v =
    let slot = Netsim.Topology.slot st.topo u v in
    if slot < 0 then invalid_arg (Printf.sprintf "Runner: no link %d->%d" u v)
    else slot

  let link st u v = st.links.(link_slot st u v)

  (* Trace emission helpers. Producers guard with [tracing] before building
     an event, so a disabled trace costs one boolean test per site. *)
  let tracing st cat = Obs.Trace.on st.trace cat

  (* Profiling scopes, registered once at functor application. The hot sites
     below use enter/exit pairs rather than [Obs.Prof.time] so that a
     disabled profiler costs one atomic load per site and allocates
     nothing. *)
  let prof_forward = Obs.Prof.scope "engine.forward"

  let prof_on_message = Obs.Prof.scope ("proto." ^ P.name ^ ".on_message")

  let prof_timer = Obs.Prof.scope ("proto." ^ P.name ^ ".timer")

  let prof_engine_run = Obs.Prof.scope "engine.run"

  let emit st ev =
    Obs.Trace.emit st.trace ~time:(Dessim.Scheduler.now st.sched) ev

  let next_hop_of st n ~dst = P.next_hop st.routers.(n) ~dst

  (* ---------- fast reroute ---------- *)

  (* Backup recomputation is debounced: route changes mark destinations
     dirty, and one sweep this long after the first marking recomputes only
     the dirty columns. Long enough to batch a convergence burst's worth of
     changes, short enough that backups track the control plane closely. *)
  let frr_sweep_delay = 1.0

  let frr_metric st ~node ~dst = P.metric st.routers.(node) ~dst

  let frr_next_hop st ~node ~dst = P.next_hop st.routers.(node) ~dst

  let frr_sweep ?(installs_traced = true) st f =
    let trace_env = installs_traced && tracing st Obs.Event.Env in
    Frr.sweep f
      ~metric:(fun ~node ~dst -> frr_metric st ~node ~dst)
      ~next_hop:(fun ~node ~dst -> frr_next_hop st ~node ~dst)
      ~on_install:(fun ~node ~dst ~backup ->
        st.frr_installs <- st.frr_installs + 1;
        if trace_env then
          emit st (Obs.Event.Frr_installed { node; dst; backup }))

  let frr_arm st f =
    if Frr.arm_sweep f then
      ignore
        (Dessim.Scheduler.after st.sched ~delay:frr_sweep_delay (fun () ->
             frr_sweep st f))

  let frr_route_changed st f dst =
    Frr.mark_dirty f ~dst;
    frr_arm st f

  (* One endpoint's local failure detection: activate fast reroute at [node]
     for traffic that would have crossed the dead link, and queue the
     recomputation of the alternates that crossed it themselves. Fires at
     the same instant the routing protocol learns of the failure. *)
  let frr_detect_down st f node neighbor =
    if Frr.mark_down f ~node ~neighbor then begin
      st.frr_activations <- st.frr_activations + 1;
      if tracing st Obs.Event.Env then
        emit st (Obs.Event.Frr_activated { node; neighbor })
    end;
    Frr.dirty_backups_via f ~node ~neighbor

  let frr_link_down st u v =
    match st.frr with
    | Some f ->
      frr_detect_down st f u v;
      frr_detect_down st f v u;
      frr_arm st f
    | None -> ()

  let frr_link_up st u v =
    match st.frr with
    | Some f ->
      Frr.mark_up f ~node:u ~neighbor:v;
      Frr.mark_up f ~node:v ~neighbor:u;
      Frr.dirty_missing_backups f ~node:u;
      Frr.dirty_missing_backups f ~node:v;
      frr_arm st f
    | None -> ()

  let sample_path st (f : flow_state) =
    Observer.current_path
      ~next_hop:(fun n -> next_hop_of st n ~dst:f.dst)
      ~src:f.src ~dst:f.dst

  (* Keep the flow's loop bookkeeping current and emit loop-episode
     boundaries: entering a cycle, switching cycles, leaving one. *)
  let track_loop st (f : flow_state) now path =
    let cycle_now = Loop_analysis.cycle_of_path path in
    match (f.loop_since, cycle_now) with
    | None, None -> ()
    | None, Some cycle ->
      f.loop_since <- Some (now, cycle);
      if tracing st Obs.Event.Data then
        emit st (Obs.Event.Loop_enter { flow = f.idx; cycle })
    | Some (since, cycle), None ->
      f.loop_since <- None;
      if tracing st Obs.Event.Data then
        emit st
          (Obs.Event.Loop_exit { flow = f.idx; cycle; duration = now -. since })
    | Some (since, old_cycle), Some cycle ->
      if not (Observer.equal_nodes old_cycle cycle) then begin
        f.loop_since <- Some (now, cycle);
        if tracing st Obs.Event.Data then begin
          emit st
            (Obs.Event.Loop_exit
               { flow = f.idx; cycle = old_cycle; duration = now -. since });
          emit st (Obs.Event.Loop_enter { flow = f.idx; cycle })
        end
      end

  let record_path_sample st (f : flow_state) =
    let now = Dessim.Scheduler.now st.sched in
    let path = sample_path st f in
    let changed =
      match f.path_samples with
      | (_, last) :: _ -> not (Observer.equal last path)
      | [] -> true
    in
    if changed then begin
      f.path_samples <- (now, path) :: f.path_samples;
      if tracing st Obs.Event.Env then
        emit st
          (Obs.Event.Path_changed
             {
               flow = f.idx;
               kind = path_kind_of path;
               path = Observer.nodes_of path;
             });
      track_loop st f now path
    end

  let on_route_changed st router dst =
    let now = Dessim.Scheduler.now st.sched in
    if tracing st Obs.Event.Env then
      emit st (Obs.Event.Route_changed { node = router; dst });
    (match st.frr with
    | Some f -> frr_route_changed st f dst
    | None -> ());
    (match st.first_failure_at with
    | Some t0 when now >= t0 -> st.last_route_change <- now
    | Some _ | None -> ());
    Array.iter (fun f -> if f.dst = dst then record_path_sample st f) st.flows

  let drop_data (d : data) (reason : Netsim.Types.drop_reason) =
    d.d_handler.h_drop d.d_pkt reason

  (* [payload] is the [Data d] wrapper this packet was launched with: re-sent
     as-is on every hop rather than re-wrapped, it stays a single allocation
     for the packet's whole life. *)
  let rec forward st node payload (d : data) =
    st.data_forwards <- st.data_forwards + 1;
    Obs.Prof.enter prof_forward;
    do_forward st node payload d;
    Obs.Prof.exit prof_forward

  and do_forward st node payload (d : data) =
    let p = d.d_pkt in
    Netsim.Packet.visit p node;
    if node = p.dst then d.d_handler.h_deliver p
    else
      match st.frr with
      | Some f -> frr_forward st f node payload d
      | None -> (
        match next_hop_of st node ~dst:p.dst with
        | None -> drop_data d Netsim.Types.No_route
        | Some nh -> forward_via st node payload d nh)

  and forward_via st node payload (d : data) nh =
    let p = d.d_pkt in
    if p.ttl <= 0 then drop_data d Netsim.Types.Ttl_expired
    else begin
      if tracing st Obs.Event.Data then
        emit st
          (Obs.Event.Packet_forwarded
             { pkt = p.id; node; next_hop = nh; ttl = p.ttl });
      p.ttl <- p.ttl - 1;
      (* Rejections are accounted by the link's [dropped] callback. *)
      ignore (Netsim.Link.send (link st node nh) ~size_bits:p.size_bits payload)
    end

  (* Forwarding with fast reroute enabled: graceful degradation of the data
     plane. The primary route is used whenever it is usable; the precomputed
     backup covers exactly the convergence gap — primary still aimed at a
     locally-detected-dead link, or withdrawn/invalidated by the protocol's
     reconvergence churn. Once the protocol installs a fresh usable primary,
     the first branch takes over again: deactivation on reconvergence needs
     no extra state. *)
  and frr_forward st f node payload (d : data) =
    let p = d.d_pkt in
    let primary = next_hop_of st node ~dst:p.dst in
    match primary with
    | Some nh when not (Frr.is_down f ~node ~neighbor:nh) ->
      forward_via st node payload d nh
    | _ ->
      let b = Frr.backup_id f ~node ~dst:p.dst in
      let usable =
        b >= 0 && p.ttl > 0
        && (not (Frr.is_down f ~node ~neighbor:b))
        && Netsim.Link.is_up (link st node b)
        && not (Netsim.Packet.visited p b)
      in
      if usable then begin
        st.frr_forwards <- st.frr_forwards + 1;
        if tracing st Obs.Event.Data then
          emit st
            (Obs.Event.Frr_forwarded
               { pkt = p.id; node; next_hop = b; ttl = p.ttl });
        p.ttl <- p.ttl - 1;
        ignore (Netsim.Link.send (link st node b) ~size_bits:p.size_bits payload)
      end
      else begin
        st.frr_exhausted <- st.frr_exhausted + 1;
        if tracing st Obs.Event.Data then
          emit st (Obs.Event.Frr_exhausted { pkt = p.id; node });
        (* Fall through to exactly the frr-off outcome. *)
        match primary with
        | None -> drop_data d Netsim.Types.No_route
        | Some nh -> forward_via st node payload d nh
      end

  and deliver_ctrl st ~from at_node msg =
    if tracing st Obs.Event.Control then
      emit st
        (Obs.Event.Ctrl_received
           {
             proto = P.name;
             src = from;
             dst = at_node;
             kind = msg_kind_of (P.message_kind msg);
           });
    Obs.Prof.enter prof_on_message;
    P.on_message st.routers.(at_node) ~from msg;
    Obs.Prof.exit prof_on_message

  and on_arrival st at_node payload =
    match payload with
    | Data d -> forward st at_node payload d
    | Ctrl { from; msg } -> deliver_ctrl st ~from at_node msg
    | Rseg { from; seg } ->
      Fault.Rtx.on_segment st.rtx_sessions.(link_slot st at_node from) seg

  let fault_seed st =
    Option.value st.faults.Fault.Spec.fault_seed ~default:st.cfg.Config.seed

  let perturb_applies (noise : Fault.Perturb.t) payload =
    match (noise.Fault.Perturb.scope, payload) with
    | Fault.Perturb.All, _ -> true
    | Fault.Perturb.Control_only, (Ctrl _ | Rseg _) -> true
    | Fault.Perturb.Control_only, Data _ -> false
    | Fault.Perturb.Data_only, Data _ -> true
    | Fault.Perturb.Data_only, (Ctrl _ | Rseg _) -> false

  let injected_loss st u v payload reason what =
    if tracing st Obs.Event.Env then
      emit st (Obs.Event.Fault_injected { u; v; what });
    match payload with
    | Data d ->
      st.injected_data_drops <- st.injected_data_drops + 1;
      drop_data d reason
    | Ctrl _ ->
      st.injected_ctrl_drops <- st.injected_ctrl_drops + 1;
      st.ctrl_lost <- st.ctrl_lost + 1;
      if tracing st Obs.Event.Control then
        emit st (Obs.Event.Ctrl_lost { reason })
    | Rseg _ ->
      (* Segment loss is not protocol-message loss: the transport will
         retransmit, so only the injection counter records it. *)
      st.injected_ctrl_drops <- st.injected_ctrl_drops + 1

  (* Link egress with the perturbation layer in front of [on_arrival]; [rng]
     is link [u -> v]'s own stream. Data packets are never duplicated (their
     delivery accounting is exactly-once by construction); control units may
     be dropped, corrupted, duplicated, or jittered. *)
  let ingress st noise rng u v payload =
    if perturb_applies noise payload then
      match Fault.Perturb.decide rng noise with
      | Fault.Perturb.Drop ->
        injected_loss st u v payload Netsim.Types.Injected_loss "drop"
      | Fault.Perturb.Corrupt ->
        injected_loss st u v payload Netsim.Types.Corrupted "corrupt"
      | Fault.Perturb.Deliver { copies; delay } ->
        let copies = match payload with Data _ -> 1 | Ctrl _ | Rseg _ -> copies in
        if copies > 1 && tracing st Obs.Event.Env then
          emit st (Obs.Event.Fault_injected { u; v; what = "duplicate" });
        if delay = 0. then
          for _ = 1 to copies do
            on_arrival st v payload
          done
        else begin
          if tracing st Obs.Event.Env then
            emit st (Obs.Event.Fault_injected { u; v; what = "reorder" });
          for _ = 1 to copies do
            ignore
              (Dessim.Scheduler.after st.sched ~delay (fun () ->
                   on_arrival st v payload))
          done
        end
    else on_arrival st v payload

  let on_link_drop st payload reason =
    match payload with
    | Data d -> drop_data d reason
    | Ctrl _ | Rseg _ ->
      (* Rseg counts like Ctrl here: a segment caught on a failing link is a
         control-plane loss event, exactly as the idealized transport's
         message would have been. *)
      st.ctrl_lost <- st.ctrl_lost + 1;
      if tracing st Obs.Event.Control then
        emit st (Obs.Event.Ctrl_lost { reason })

  (* Directed link [u -> v]. Under injected noise its deliver closure owns
     the link's perturbation stream, seeded from the link itself
     ([Fault.Spec.link_seed]) so that its draws move no other stream of the
     run; without noise it hands every arrival straight to [on_arrival]. *)
  let make_link st u v =
    let cfg = st.cfg in
    let deliver =
      match st.faults.Fault.Spec.noise with
      | None -> fun payload -> on_arrival st v payload
      | Some noise ->
        let rng =
          Dessim.Rng.create (Fault.Spec.link_seed ~seed:(fault_seed st) ~u ~v)
        in
        fun payload -> ingress st noise rng u v payload
    in
    Netsim.Link.create ~sched:st.sched ~bandwidth_bps:cfg.Config.bandwidth_bps
      ~prop_delay:cfg.Config.prop_delay ~queue_capacity:cfg.Config.queue_capacity
      ~deliver
      ~dropped:(fun payload reason -> on_link_drop st payload reason)
      ()

  (* Tear down / re-establish both endpoints' sessions over one undirected
     link. No-ops when the reliable transport is disabled. *)
  let rtx_link_down st u v =
    if st.rtx_on then begin
      Fault.Rtx.link_down st.rtx_sessions.(link_slot st u v);
      Fault.Rtx.link_down st.rtx_sessions.(link_slot st v u)
    end

  let rtx_link_up st u v =
    if st.rtx_on then begin
      Fault.Rtx.link_up st.rtx_sessions.(link_slot st u v);
      Fault.Rtx.link_up st.rtx_sessions.(link_slot st v u)
    end

  (* One endpoint's reliable session: [a]'s side of the (a, b) adjacency.
     Segments ride the same link with the same reliable flag and message
     size the idealized transport used — so at zero injected loss the wire
     behavior (transmission times, queue occupancy) is unchanged — but ACKs,
     retransmission and session epochs are now real. ACK segments are zero
     bits: framing overhead is not part of the paper's cost model. *)
  let make_rtx_session st a b =
    let config =
      Option.value st.faults.Fault.Spec.rtx ~default:Fault.Rtx.default_config
    in
    let link = link st a b in
    Fault.Rtx.create ~config ~sched:st.sched
      ~send:(fun seg ->
        let size_bits =
          match seg with
          | Fault.Rtx.Seg_data { msg; _ } -> P.message_size_bits msg
          | Fault.Rtx.Seg_ack _ -> 0
        in
        ignore
          (Netsim.Link.send link ~reliable:true ~size_bits
             (Rseg { from = a; seg })))
      ~deliver:(fun msg -> deliver_ctrl st ~from:b a msg)
      ~on_reset:(fun ~epoch ->
        if tracing st Obs.Event.Control then
          emit st (Obs.Event.Session_reset { src = a; dst = b; epoch });
        (* Bounce the routing session on BOTH ends. A transport reset tears
           the adjacency down like a real BGP session drop, and session
           death is mutually observable (TCP reset / missing keepalives):
           [a] discards its Adj-RIB-in from [b] here, so if [b] did not
           also re-advertise, every route [a] learned over the session
           would be lost until an unrelated event resent it — a stale
           longer path surviving to quiescence (the lossy-heal fuzz
           counterexample). Each side withdraws what it learned and
           re-advertises its table over the fresh epoch. *)
        P.on_link_down st.routers.(a) ~neighbor:b;
        P.on_link_down st.routers.(b) ~neighbor:a;
        P.on_link_up st.routers.(a) ~neighbor:b;
        P.on_link_up st.routers.(b) ~neighbor:a)
      ~on_event:(function
        | Fault.Rtx.Retransmit { seq; attempt } ->
          if tracing st Obs.Event.Control then
            emit st
              (Obs.Event.Rtx_sent
                 { proto = P.name; src = a; dst = b; seq; attempt })
        | Fault.Rtx.Timeout { rto; attempt } ->
          if tracing st Obs.Event.Control then
            emit st (Obs.Event.Rtx_timeout { src = a; dst = b; rto; attempt }))
      ()

  (* Build one protocol instance. [gen] pins the instance's generation:
     timers scheduled by a crashed (or rebooted-over) instance find their
     generation stale and fall silent, which is how a crash discards a
     router's pending protocol work without tracking timer handles. *)
  let make_router st pcfg ~rng id =
    let gen = st.generation.(id) in
    let live () = st.generation.(id) = gen in
    (* When control-plane tracing is off, protocol timers are scheduled
       directly; otherwise each timer callback is wrapped to announce its
       firing. Decided once per router, not per timer. *)
    let trace_control = tracing st Obs.Event.Control in
    let run_timer fn =
      st.timer_fires <- st.timer_fires + 1;
      Obs.Prof.enter prof_timer;
      fn ();
      Obs.Prof.exit prof_timer
    in
    (* Timers are tagged events whose payload is the protocol's own callback:
       arming one allocates nothing in the scheduler (the liveness guard and
       trace wrapper live in the per-router handler, registered once here
       instead of closed over per timer). *)
    let timer_tag =
      if trace_control then
        Dessim.Scheduler.register st.sched (fun fn ->
            if live () then begin
              emit st (Obs.Event.Timer_fired { node = id });
              run_timer fn
            end)
      else
        Dessim.Scheduler.register st.sched (fun fn ->
            if live () then run_timer fn)
    in
    let after_action delay fn =
      Dessim.Scheduler.after_tag_h st.sched ~delay timer_tag fn
    in
    let actions =
      {
        Protocols.Proto_intf.now = (fun () -> Dessim.Scheduler.now st.sched);
        send =
          (fun neighbor msg ->
            let bits = P.message_size_bits msg in
            st.ctrl_messages <- st.ctrl_messages + 1;
            st.ctrl_bytes <- st.ctrl_bytes + (bits / 8);
            if trace_control then
              emit st
                (Obs.Event.Ctrl_sent
                   {
                     proto = P.name;
                     src = id;
                     dst = neighbor;
                     kind = msg_kind_of (P.message_kind msg);
                     bits;
                   });
            if st.rtx_on then
              Fault.Rtx.send st.rtx_sessions.(link_slot st id neighbor) msg
            else
              ignore
                (Netsim.Link.send (link st id neighbor)
                   ~reliable:P.uses_reliable_transport ~size_bits:bits
                   (Ctrl { from = id; msg })));
        after = after_action;
        route_changed = (fun dst -> on_route_changed st id dst);
        mrai_deferred =
          (fun neighbor dsts ->
            if trace_control then
              emit st (Obs.Event.Mrai_defer { node = id; neighbor; dsts }));
      }
    in
    P.create pcfg ~rng ~id
      ~neighbors:(Netsim.Topology.neighbors st.topo id)
      ~actions

  let make_routers st pcfg master_rng =
    let n = Netsim.Topology.node_count st.topo in
    let make id = make_router st pcfg ~rng:(Dessim.Rng.split master_rng) id in
    st.routers <- Array.init n make;
    Array.iter P.start st.routers

  (* Create a packet at [src] bound for [dst], attach its handler, and push
     it into the forwarding plane. Returns the packet id. [?flow] identifies
     the originating flow in the trace; anonymous packets (transport ACKs)
     are not announced. *)
  let launch_packet st ?flow ~handler ~src ~dst ~size_bits () =
    let id = st.next_packet_id in
    st.next_packet_id <- id + 1;
    let p =
      Netsim.Packet.create ~id ~src ~dst ~size_bits ~ttl:st.cfg.Config.ttl
        ~sent_at:(Dessim.Scheduler.now st.sched)
    in
    let d = { d_pkt = p; d_handler = handler } in
    (match flow with
    | Some fidx when tracing st Obs.Event.Data ->
      emit st (Obs.Event.Packet_sent { flow = fidx; pkt = id; src; dst })
    | Some _ | None -> ());
    forward st src (Data d) d;
    id

  (* The per-flow accounting every data packet of flow [f] goes through:
     counters, series and delay histogram, then the trace event. *)
  let flow_handler st (f : flow_state) =
    {
      h_deliver =
        (fun p ->
          let now = Dessim.Scheduler.now st.sched in
          f.delivered <- f.delivered + 1;
          Dessim.Series.add f.throughput ~time:now 1.;
          let delay = now -. p.Netsim.Packet.sent_at in
          Dessim.Series.add f.delay ~time:now delay;
          (match st.delay_hist with
          | Some h -> Obs.Registry.observe h delay
          | None -> ());
          let looped = Netsim.Packet.looped p in
          if looped then f.looped_delivered <- f.looped_delivered + 1;
          if tracing st Obs.Event.Data then
            emit st
              (Obs.Event.Packet_delivered
                 { flow = f.idx; pkt = p.Netsim.Packet.id; delay; looped }));
      h_drop =
        (fun p reason ->
          (match reason with
          | Netsim.Types.No_route -> f.drops_no_route <- f.drops_no_route + 1
          | Netsim.Types.Ttl_expired -> f.drops_ttl <- f.drops_ttl + 1
          | Netsim.Types.Queue_overflow -> f.drops_queue <- f.drops_queue + 1
          | Netsim.Types.Link_down -> f.drops_link <- f.drops_link + 1
          | Netsim.Types.Injected_loss | Netsim.Types.Corrupted ->
            f.drops_injected <- f.drops_injected + 1);
          let looped = Netsim.Packet.looped p in
          if looped then f.looped_dropped <- f.looped_dropped + 1;
          if tracing st Obs.Event.Data then
            emit st
              (Obs.Event.Packet_dropped
                 { flow = f.idx; pkt = p.Netsim.Packet.id; reason; looped }));
    }

  let start_cbr st (f : flow_state) rate =
    let cfg = st.cfg in
    let interval = 1. /. rate in
    let handler = flow_handler st f in
    (* One self-rescheduling pacer closure for the flow's whole life: with
       [fire_after] (recycled event cell) and an inlined clock read, the
       steady-state cost of a CBR tick is the packet itself. *)
    let rec send_one () =
      if Dessim.Scheduler.now st.sched < cfg.Config.sim_end then begin
        f.sent <- f.sent + 1;
        ignore
          (launch_packet st ~flow:f.idx ~handler ~src:f.src ~dst:f.dst
             ~size_bits:(8 * cfg.Config.data_packet_bytes) ());
        Dessim.Scheduler.fire_after st.sched ~delay:interval send_one
      end
    in
    Dessim.Scheduler.fire_at st.sched ~at:f.start send_one

  (* Sender/receiver pair implementing a fixed-size sliding window with
     cumulative ACKs and go-back-to-base timeout retransmission — the "simple
     flow control with a maximal window size and retransmission after
     timeout" workload of Shankar et al. (the paper's reference [25]), and a
     first step toward the paper's future-work TCP study. Data packets go
     through the flow's accounting before the receiver sees them; ACKs are
     anonymous and uncounted. *)
  let start_transfer st (f : flow_state) (tc : transport_config) =
    if tc.window <= 0 then invalid_arg "Runner: transport window";
    if tc.rto <= 0. then invalid_arg "Runner: transport rto";
    let goodput =
      let buckets =
        int_of_float (Float.ceil (st.cfg.Config.sim_end -. f.start)) |> max 1
      in
      Dessim.Series.create ~start:f.start ~width:1. ~buckets
    in
    f.transfer <-
      Some
        {
          Metrics.t_completed = 0;
          t_retransmissions = 0;
          t_duplicates = 0;
          t_completed_at = None;
          t_goodput = goodput;
        };
    let update g = f.transfer <- Option.map g f.transfer in
    let accounting = flow_handler st f in
    (* Sender state. *)
    let send_base = ref 0 in
    let next_seq = ref 0 in
    let rto_handle = ref None in
    (* Receiver state. *)
    let rcv_next = ref 0 in
    let out_of_order = Hashtbl.create 64 in
    let cancel_rto () =
      match !rto_handle with
      | Some h ->
        Dessim.Scheduler.cancel st.sched h;
        rto_handle := None
      | None -> ()
    in
    let finished () = tc.total_packets > 0 && !send_base >= tc.total_packets in
    let limit () =
      if tc.total_packets > 0 then min tc.total_packets (!send_base + tc.window)
      else !send_base + tc.window
    in
    let null_drop _ _ = () in
    let rec send_ack () =
      (* Cumulative ACK: the handler closes over [rcv_next] (the simulator's
         packets have no payload field). *)
      let cum = !rcv_next in
      let handler =
        { h_deliver = (fun _ -> on_ack cum); h_drop = null_drop }
      in
      ignore
        (launch_packet st ~handler ~src:f.dst ~dst:f.src
           ~size_bits:(8 * tc.ack_bytes) ())
    and on_data seq =
      if seq = !rcv_next then begin
        incr rcv_next;
        while Hashtbl.mem out_of_order !rcv_next do
          Hashtbl.remove out_of_order !rcv_next;
          incr rcv_next
        done
      end
      else if seq > !rcv_next then Hashtbl.replace out_of_order seq ()
      else
        update (fun t ->
            { t with Metrics.t_duplicates = t.Metrics.t_duplicates + 1 });
      send_ack ()
    and send_data ~retransmit seq =
      if retransmit then
        update (fun t ->
            { t with Metrics.t_retransmissions = t.Metrics.t_retransmissions + 1 });
      f.sent <- f.sent + 1;
      let handler =
        {
          accounting with
          h_deliver =
            (fun p ->
              accounting.h_deliver p;
              on_data seq);
        }
      in
      ignore
        (launch_packet st ~flow:f.idx ~handler ~src:f.src ~dst:f.dst
           ~size_bits:(8 * st.cfg.Config.data_packet_bytes) ())
    and arm_rto () =
      cancel_rto ();
      if not (finished ()) then
        rto_handle :=
          Some
            (Dessim.Scheduler.after st.sched ~delay:tc.rto (fun () ->
                 rto_handle := None;
                 if not (finished ()) then begin
                   (* Timeout: go-back-N — resend every outstanding packet,
                      so one timeout after the route heals recovers the whole
                      lost window in about one RTT. *)
                   for seq = !send_base to !next_seq - 1 do
                     send_data ~retransmit:true seq
                   done;
                   arm_rto ()
                 end))
    and fill_window () =
      while !next_seq < limit () do
        send_data ~retransmit:false !next_seq;
        incr next_seq
      done;
      if !next_seq > !send_base && !rto_handle = None then arm_rto ()
    and on_ack cum =
      if cum > !send_base then begin
        let now = Dessim.Scheduler.now st.sched in
        let progress = cum - !send_base in
        for _ = 1 to progress do
          Dessim.Series.add goodput ~time:now 1.
        done;
        send_base := cum;
        update (fun t ->
            {
              t with
              Metrics.t_completed = cum;
              t_completed_at =
                (if finished () && t.Metrics.t_completed_at = None then Some now
                 else t.Metrics.t_completed_at);
            });
        if finished () then cancel_rto () else arm_rto ();
        fill_window ()
      end
    in
    ignore (Dessim.Scheduler.schedule st.sched ~at:f.start fill_window)

  let start_traffic st (f : flow_state) =
    match f.traffic with
    | Cbr rate ->
      start_cbr st f (Option.value rate ~default:st.cfg.Config.send_rate_pps)
    | Transfer tc -> start_transfer st f tc

  let path_link_candidates path =
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | [ _ ] | [] -> []
    in
    pairs path

  let pick_failure_link st rng = function
    | Link (u, v) ->
      if not (Netsim.Topology.has_edge st.topo u v) then
        invalid_arg (Printf.sprintf "Runner: cannot fail nonexistent link %d-%d" u v);
      (u, v)
    | Random_link ->
      let live =
        List.filter
          (fun (u, v) -> Netsim.Link.is_up (link st u v))
          (Netsim.Topology.edges st.topo)
      in
      if live = [] then invalid_arg "Runner: no live link left to fail";
      Dessim.Rng.pick rng live
    | Flow_path i ->
      if i < 0 || i >= Array.length st.flows then
        invalid_arg "Runner: failure targets a nonexistent flow";
      let f = st.flows.(i) in
      let path = Observer.nodes_of (sample_path st f) in
      let live =
        List.filter
          (fun (u, v) -> Netsim.Link.is_up (link st u v))
          (path_link_candidates path)
      in
      (match live with
      | [] -> (
        (* Degenerate: no usable forwarding path; fall back to the
           topological shortest path so the experiment still runs. *)
        match Netsim.Topology.shortest_path st.topo f.src f.dst with
        | Some (a :: b :: _) -> (a, b)
        | Some _ | None -> invalid_arg "Runner: no path between src and dst")
      | candidates -> Dessim.Rng.pick rng candidates)

  (* ---------- link state ---------- *)

  (* Every cause that takes a link down — a scheduled failure, a flap, an
     endpoint crash — goes through this pair, and causes can overlap (two
     failures on one link, a failure plus a flap), so link state is
     refcounted per undirected edge: the link physically fails and is
     detected on 0 -> 1 and heals on 1 -> 0; every other down/up just moves
     the count. The count lives at the edge's lower-to-higher slot. *)
  let edge_slot st u v = if u <= v then link_slot st u v else link_slot st v u

  let sched_take_down st u v =
    let e = edge_slot st u v in
    st.down_causes.(e) <- st.down_causes.(e) + 1;
    if st.down_causes.(e) = 1 then begin
      (* The first failure defines the measurement origin: freeze every
         flow's pre-failure path. *)
      if st.first_failure_at = None then begin
        st.first_failure_at <- Some (Dessim.Scheduler.now st.sched);
        Array.iter
          (fun f -> f.pre_failure_path <- Observer.nodes_of (sample_path st f))
          st.flows
      end;
      st.failed_links <- (u, v) :: st.failed_links;
      if tracing st Obs.Event.Env then emit st (Obs.Event.Link_failed { u; v });
      Netsim.Link.fail (link st u v);
      Netsim.Link.fail (link st v u);
      ignore
        (Dessim.Scheduler.after st.sched ~delay:st.cfg.Config.detection_delay
           (fun () ->
             (* Skip notification if the link already came back up: an
                outage shorter than the detection delay is invisible to
                routing, exactly like a real loss-of-signal debounce. *)
             if st.down_causes.(e) > 0 then begin
               frr_link_down st u v;
               rtx_link_down st u v;
               P.on_link_down st.routers.(u) ~neighbor:v;
               P.on_link_down st.routers.(v) ~neighbor:u;
               (* The failure may have changed the forwarding picture even
                  if no best route changed yet (e.g. RIP still points at
                  the dead link); sample so the history has a failure-time
                  snapshot. *)
               Array.iter (record_path_sample st) st.flows
             end))
    end

  let sched_bring_up st u v =
    let e = edge_slot st u v in
    if st.down_causes.(e) > 0 then begin
      st.down_causes.(e) <- st.down_causes.(e) - 1;
      if st.down_causes.(e) = 0 then begin
        if tracing st Obs.Event.Env then emit st (Obs.Event.Link_healed { u; v });
        Netsim.Link.restore (link st u v);
        Netsim.Link.restore (link st v u);
        frr_link_up st u v;
        rtx_link_up st u v;
        P.on_link_up st.routers.(u) ~neighbor:v;
        P.on_link_up st.routers.(v) ~neighbor:u
      end
    end

  (* A failure picks its link when it fires ([Flow_path] targets the flow's
     path at that instant) and holds it down for [heal_after], or for the
     rest of the run. *)
  let inject_failure st rng (spec : failure_spec) =
    ignore
      (Dessim.Scheduler.schedule st.sched ~at:spec.fail_at (fun () ->
           let u, v = pick_failure_link st rng spec.target in
           sched_take_down st u v;
           Option.iter
             (fun delay ->
               ignore
                 (Dessim.Scheduler.after st.sched ~delay (fun () ->
                      sched_bring_up st u v)))
             spec.heal_after))

  (* ---------- declarative fault schedules ---------- *)

  let apply_flap st srng (f : Fault.Schedule.flap) =
    let u, v =
      match f.Fault.Schedule.flap_link with
      | Fault.Schedule.Edge (u, v) ->
        if not (Netsim.Topology.has_edge st.topo u v) then
          invalid_arg
            (Printf.sprintf "Runner: cannot flap nonexistent link %d-%d" u v);
        (u, v)
      | Fault.Schedule.Any_edge ->
        Dessim.Rng.pick srng (Netsim.Topology.edges st.topo)
    in
    List.iter
      (fun { Fault.Schedule.at; up } ->
        ignore
          (Dessim.Scheduler.schedule st.sched ~at (fun () ->
               if up then sched_bring_up st u v else sched_take_down st u v)))
      (Fault.Schedule.flap_transitions srng f)

  let apply_crash st pcfg (c : Fault.Schedule.crash) =
    let node = c.Fault.Schedule.crash_node in
    ignore
      (Dessim.Scheduler.schedule st.sched ~at:c.Fault.Schedule.crash_at
         (fun () ->
           if (not st.crashed.(node)) && node >= 0
              && node < Array.length st.routers
           then begin
             st.crashed.(node) <- true;
             (* Bumping the generation silences every timer the dying
                instance has pending — its state is gone, not paused. *)
             st.generation.(node) <- st.generation.(node) + 1;
             if tracing st Obs.Event.Env then
               emit st (Obs.Event.Node_crash { node });
             List.iter
               (fun nb -> sched_take_down st node nb)
               (Netsim.Topology.neighbors st.topo node);
             match c.Fault.Schedule.reboot_after with
             | None -> ()
             | Some d ->
               ignore
                 (Dessim.Scheduler.after st.sched ~delay:d (fun () ->
                      st.crashed.(node) <- false;
                      if tracing st Obs.Event.Env then
                        emit st (Obs.Event.Node_reboot { node });
                      (* A fresh instance with a derived RNG: the reboot must
                         not consume master-stream draws, or a crash schedule
                         would perturb every later random choice of the run. *)
                      let rng =
                        Dessim.Rng.create
                          (Fault.Spec.node_seed ~seed:(fault_seed st) ~node
                             ~gen:st.generation.(node))
                      in
                      st.routers.(node) <- make_router st pcfg ~rng node;
                      P.start st.routers.(node);
                      List.iter
                        (fun nb -> sched_bring_up st node nb)
                        (Netsim.Topology.neighbors st.topo node)))
           end))

  let apply_faults st pcfg =
    let spec = st.faults in
    if spec.Fault.Spec.flaps <> [] || spec.Fault.Spec.crashes <> [] then begin
      let srng =
        Dessim.Rng.create (Fault.Spec.schedule_seed ~seed:(fault_seed st))
      in
      List.iter (apply_flap st srng) spec.Fault.Spec.flaps;
      List.iter (apply_crash st pcfg) spec.Fault.Spec.crashes
    end

  (* Forwarding-path convergence delay (paper Section 5.4): the time from the
     first failure until the flow's path last becomes equal to its final
     (post-convergence) value. *)
  let fwd_convergence_of st (f : flow_state) =
    match st.first_failure_at with
    | None -> 0.
    | Some failure -> (
      match f.path_samples with
      | [] -> 0.
      | (_, final) :: _ as samples ->
        (* Walk newest -> oldest while samples still equal the final path;
           the last one reached is when the path became final. Consecutive
           samples differ by construction, so in practice this inspects the
           newest sample only — kept general for robustness. *)
        let rec converged_at acc = function
          | (t, p) :: rest when Observer.equal p final && t >= failure ->
            converged_at t rest
          | _ -> acc
        in
        let t_final = converged_at failure samples in
        Float.max 0. (t_final -. failure))

  let transient_paths_of st (f : flow_state) =
    match st.first_failure_at with
    | None -> 0
    | Some failure ->
      let after_failure =
        List.filter (fun (t, _) -> t >= failure) f.path_samples
      in
      let distinct =
        List.fold_left
          (fun acc (_, p) ->
            if List.exists (Observer.equal p) acc then acc else p :: acc)
          [] after_failure
      in
      List.length distinct

  let flow_outcome st (f : flow_state) =
    let final = sample_path st f in
    {
      Metrics.f_src = f.src;
      f_dst = f.dst;
      f_sent = f.sent;
      f_delivered = f.delivered;
      f_drops_no_route = f.drops_no_route;
      f_drops_ttl = f.drops_ttl;
      f_drops_queue = f.drops_queue;
      f_drops_link = f.drops_link;
      f_drops_injected = f.drops_injected;
      f_looped_delivered = f.looped_delivered;
      f_looped_dropped = f.looped_dropped;
      f_throughput = f.throughput;
      f_delay = f.delay;
      f_fwd_convergence = fwd_convergence_of st f;
      f_transient_paths = transient_paths_of st f;
      f_pre_failure_path = f.pre_failure_path;
      f_final_path = Observer.nodes_of final;
      f_final_path_complete = Observer.is_complete final;
      f_transfer = f.transfer;
    }

  let collect_multi ?label st =
    let routing_convergence =
      match st.first_failure_at with
      | None -> 0.
      | Some t0 -> Float.max 0. (st.last_route_change -. t0)
    in
    {
      Metrics.m_protocol = (match label with Some l -> l | None -> P.name);
      m_degree = st.cfg.Config.degree;
      m_seed = st.cfg.Config.seed;
      m_flows = Array.to_list (Array.map (flow_outcome st) st.flows);
      m_ctrl_messages = st.ctrl_messages;
      m_ctrl_bytes = st.ctrl_bytes;
      m_ctrl_lost = st.ctrl_lost;
      m_routing_convergence = routing_convergence;
      m_failed_links = List.rev st.failed_links;
      m_sched_events = Dessim.Scheduler.events_processed st.sched;
    }

  (* Drive the scheduler to the end of the scenario, then record what it cost:
     a [Sched_stats] trace event and, when a registry was supplied, scheduler
     and control-plane metrics. *)
  let run_scheduler st =
    let gc0 = Gc.quick_stat () in
    let words0 = Gc.minor_words () in
    let cpu0 = Sys.time () in
    Obs.Prof.enter prof_engine_run;
    Dessim.Scheduler.run ~until:st.cfg.Config.sim_end st.sched;
    Obs.Prof.exit prof_engine_run;
    let cpu_s = Sys.time () -. cpu0 in
    let minor_words = Gc.minor_words () -. words0 in
    let gc1 = Gc.quick_stat () in
    let events = Dessim.Scheduler.events_processed st.sched in
    let max_queue = Dessim.Scheduler.max_queue_depth st.sched in
    if tracing st Obs.Event.Sched then
      emit st (Obs.Event.Sched_stats { events; max_queue; cpu_s });
    (match st.metrics with
    | None -> ()
    | Some m ->
      Obs.Registry.set (Obs.Registry.gauge m "scheduler.events_fired")
        (float_of_int events);
      Obs.Registry.set
        (Obs.Registry.gauge m "scheduler.events_scheduled")
        (float_of_int (Dessim.Scheduler.events_scheduled st.sched));
      Obs.Registry.set
        (Obs.Registry.gauge m "scheduler.heap_pushes")
        (float_of_int (Dessim.Scheduler.heap_pushes st.sched));
      Obs.Registry.set
        (Obs.Registry.gauge m "scheduler.events_skipped")
        (float_of_int (Dessim.Scheduler.events_skipped st.sched));
      Obs.Registry.set
        (Obs.Registry.gauge m "scheduler.max_queue_depth")
        (float_of_int max_queue);
      Obs.Registry.set
        (Obs.Registry.gauge m "scheduler.events_per_cpu_s")
        (if cpu_s > 0. then float_of_int events /. cpu_s else 0.);
      Obs.Registry.incr ~by:st.timer_fires
        (Obs.Registry.counter m "sched.timer_fires");
      Obs.Registry.incr ~by:st.data_forwards
        (Obs.Registry.counter m "sched.data_forwards");
      (* Allocation telemetry: minor words, read from this domain's
         allocation pointer ([Gc.minor_words]), are deterministic for a
         deterministic simulation (collection timing does not change how
         much is allocated); promotion and collection counts are not, and
         [Gc.quick_stat] sums them over every domain. *)
      Obs.Registry.set (Obs.Registry.gauge m "gc.minor_words") minor_words;
      Obs.Registry.set
        (Obs.Registry.gauge m "gc.promoted_words")
        (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
      Obs.Registry.set
        (Obs.Registry.gauge m "gc.major_collections")
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      Obs.Registry.set
        (Obs.Registry.gauge m "alloc.minor_words_per_event")
        (if events > 0 then minor_words /. float_of_int events else 0.);
      Obs.Registry.set (Obs.Registry.gauge m "scenario.cpu_s") cpu_s;
      Obs.Registry.incr ~by:st.ctrl_messages (Obs.Registry.counter m "ctrl.messages");
      Obs.Registry.incr ~by:st.ctrl_bytes (Obs.Registry.counter m "ctrl.bytes");
      Obs.Registry.incr ~by:st.ctrl_lost (Obs.Registry.counter m "ctrl.lost");
      (* FRR gauges appear only for frr runs, so a plain run's metric
         listing is unchanged. *)
      if st.frr <> None then begin
        Obs.Registry.set
          (Obs.Registry.gauge m "frr.installs")
          (float_of_int st.frr_installs);
        Obs.Registry.set
          (Obs.Registry.gauge m "frr.activations")
          (float_of_int st.frr_activations);
        Obs.Registry.set
          (Obs.Registry.gauge m "frr.forwards")
          (float_of_int st.frr_forwards);
        Obs.Registry.set
          (Obs.Registry.gauge m "frr.exhausted")
          (float_of_int st.frr_exhausted)
      end;
      (* Fault gauges appear only for faulted runs, so a plain run's metric
         listing is unchanged. *)
      if not (Fault.Spec.is_none st.faults) then begin
        (* Each session counts its own recovery actions. *)
        let rtx_total field =
          Array.fold_left
            (fun acc s -> acc + field (Fault.Rtx.stats s))
            0 st.rtx_sessions
        in
        Obs.Registry.set
          (Obs.Registry.gauge m "fault.injected_data_drops")
          (float_of_int st.injected_data_drops);
        Obs.Registry.set
          (Obs.Registry.gauge m "fault.injected_ctrl_drops")
          (float_of_int st.injected_ctrl_drops);
        Obs.Registry.set
          (Obs.Registry.gauge m "rtx.retransmissions")
          (float_of_int (rtx_total (fun s -> s.Fault.Rtx.s_retransmissions)));
        Obs.Registry.set
          (Obs.Registry.gauge m "rtx.timeouts")
          (float_of_int (rtx_total (fun s -> s.Fault.Rtx.s_timeouts)));
        Obs.Registry.set
          (Obs.Registry.gauge m "rtx.session_resets")
          (float_of_int (rtx_total (fun s -> s.Fault.Rtx.s_resets)))
      end);
    Obs.Trace.flush st.trace

  (* The end-of-run control-plane snapshot for [?on_quiesce]: converged
     routing decisions plus the topology with currently-down links removed. *)
  let routing_view st =
    let surviving =
      List.filter
        (fun (u, v) -> Netsim.Link.is_up (link st u v))
        (Netsim.Topology.edges st.topo)
    in
    {
      rv_topology =
        Netsim.Topology.create
          ~nodes:(Netsim.Topology.node_count st.topo)
          ~edges:surviving;
      rv_next_hop = (fun ~src ~dst -> next_hop_of st src ~dst);
      rv_metric = (fun ~src ~dst -> P.metric st.routers.(src) ~dst);
      rv_backup =
        Option.map
          (fun f -> fun ~src ~dst -> Frr.backup f ~node:src ~dst)
          st.frr;
    }

  (* One simulation: build the world (topology, links, routers, per-flow
     measurement slots), start every flow, schedule every failure, run to
     [sim_end], then hand the quiescent routing state to [?on_quiesce]. *)
  let run_multi ?label ?topology ?(faults = Fault.Spec.none) ?(frr = false)
      ?(trace = Obs.Trace.null) ?(monitors = []) ?metrics ?on_quiesce ~flows
      ~failures (cfg : Config.t) (pcfg : P.config) =
    (match Config.validate cfg with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Runner.run_multi: " ^ msg));
    (match Fault.Spec.validate faults with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Runner.run_multi: faults: " ^ msg));
    if flows = [] then invalid_arg "Runner.run_multi: no flows";
    (* Monitors get the full, unfiltered event stream regardless of the
       user trace's category/severity restrictions. *)
    let trace =
      match monitors with
      | [] -> trace
      | ms -> Obs.Trace.tee (trace :: List.map Obs.Trace.create ms)
    in
    let rng = Dessim.Rng.create cfg.Config.seed in
    let topo =
      match topology with
      | Some t -> t
      | None ->
        Netsim.Mesh.generate ~rows:cfg.Config.rows ~cols:cfg.Config.cols
          ~degree:cfg.Config.degree
    in
    let buckets =
      int_of_float (Float.ceil (Config.duration_after_warmup cfg)) |> max 1
    in
    let resolve_flow idx (spec : flow_spec) =
      let pick_from candidates = function
        | Some n -> n
        | None -> Dessim.Rng.pick rng candidates
      in
      let src =
        pick_from
          (Netsim.Mesh.first_row ~rows:cfg.Config.rows ~cols:cfg.Config.cols)
          spec.flow_src
      in
      let dst =
        pick_from
          (Netsim.Mesh.last_row ~rows:cfg.Config.rows ~cols:cfg.Config.cols)
          spec.flow_dst
      in
      {
        idx;
        src;
        dst;
        traffic = spec.flow_traffic;
        start = Option.value spec.flow_start ~default:cfg.Config.traffic_start;
        sent = 0;
        delivered = 0;
        drops_no_route = 0;
        drops_ttl = 0;
        drops_queue = 0;
        drops_link = 0;
        drops_injected = 0;
        looped_delivered = 0;
        looped_dropped = 0;
        throughput = Dessim.Series.create ~start:cfg.Config.warmup ~width:1. ~buckets;
        delay = Dessim.Series.create ~start:cfg.Config.warmup ~width:1. ~buckets;
        path_samples = [];
        pre_failure_path = [];
        loop_since = None;
        transfer = None;
      }
    in
    let st =
      {
        cfg;
        sched = Dessim.Scheduler.create ();
        topo;
        links = [||];
        routers = [||];
        flows = Array.of_list (List.mapi resolve_flow flows);
        trace;
        metrics;
        delay_hist =
          Option.map (fun m -> Obs.Registry.histogram m "packet.delay_s") metrics;
        ctrl_messages = 0;
        ctrl_bytes = 0;
        ctrl_lost = 0;
        first_failure_at = None;
        last_route_change = 0.;
        failed_links = [];
        next_packet_id = 0;
        faults;
        rtx_on =
          (match faults.Fault.Spec.rtx with
          | Some _ -> P.uses_reliable_transport
          | None -> false);
        rtx_sessions = [||];
        down_causes = Array.make (Netsim.Topology.slot_count topo) 0;
        generation = Array.make (Netsim.Topology.node_count topo) 0;
        crashed = Array.make (Netsim.Topology.node_count topo) false;
        injected_data_drops = 0;
        injected_ctrl_drops = 0;
        timer_fires = 0;
        data_forwards = 0;
        frr = (if frr then Some (Frr.create topo) else None);
        frr_installs = 0;
        frr_activations = 0;
        frr_forwards = 0;
        frr_exhausted = 0;
      }
    in
    st.links <- Netsim.Topology.init_slots topo (make_link st);
    if st.rtx_on then
      st.rtx_sessions <- Netsim.Topology.init_slots topo (make_rtx_session st);
    make_routers st pcfg rng;
    apply_faults st pcfg;
    Array.iter (start_traffic st) st.flows;
    List.iter (inject_failure st rng) failures;
    run_scheduler st;
    (* Settle the backup table against the final routing state before the
       quiescence hook reads it: a sweep still pending (debounce armed past
       [sim_end]) would leave the last route changes unapplied, and the
       differential oracle checks backups against converged tables. *)
    (match st.frr with
    | Some f when on_quiesce <> None -> frr_sweep ~installs_traced:false st f
    | Some _ | None -> ());
    (match on_quiesce with Some f -> f (routing_view st) | None -> ());
    collect_multi ?label st

end
