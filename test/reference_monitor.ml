(* The table-based invariant monitor, kept verbatim as a differential oracle.

   This is the [Check.Monitor] implementation the checker shipped with before
   its per-packet state moved into dense arrays: a [Hashtbl] of visited nodes
   per packet, separate [live], [anon] and [closed] tables, an option per hop
   for the last TTL, and a [List.length] per violation. The property tests in
   test_differential.ml feed identical record streams to this monitor and to
   [Check.Monitor] and require the same violations (kind, time, sequence
   number and message), counts and in-flight totals after every record — the
   dense layout is an optimization, never a behavior change.

   Nothing below this header differs from that implementation. *)

type kind =
  | Duplicate_send
  | Unknown_termination
  | Ttl_violation
  | Teleport
  | Self_hop
  | Non_neighbor_hop
  | Wrong_delivery_node
  | Non_neighbor_ctrl
  | Conservation
  | Frr_revisit
  | Frr_failed_link

let string_of_kind = function
  | Duplicate_send -> "duplicate_send"
  | Unknown_termination -> "unknown_termination"
  | Ttl_violation -> "ttl_violation"
  | Teleport -> "teleport"
  | Self_hop -> "self_hop"
  | Non_neighbor_hop -> "non_neighbor_hop"
  | Wrong_delivery_node -> "wrong_delivery_node"
  | Non_neighbor_ctrl -> "non_neighbor_ctrl"
  | Conservation -> "conservation"
  | Frr_revisit -> "frr_revisit"
  | Frr_failed_link -> "frr_failed_link"

type violation = { v_kind : kind; v_time : float; v_seq : int; v_what : string }

let pp_violation ppf v =
  Fmt.pf ppf "[%s] t=%.3f seq=%d: %s" (string_of_kind v.v_kind) v.v_time v.v_seq
    v.v_what

(* Where an outstanding packet is believed to be. [at] is the node that will
   next forward (or consume) it; [last_ttl] the ttl of its last forwarded
   event, [None] before the first hop. *)
type pstate = {
  p_src : int;
  p_dst : int;
  mutable at : int;
  mutable last_ttl : int option;
  visited : (int, unit) Hashtbl.t;
      (* every node this packet has been seen at; ordinary forwarding may
         legally revisit (transient loops are the object of study), but a
         fast-reroute hop toward a visited node is a violation *)
}

type t = {
  topo : Netsim.Topology.t;
  initial_ttl : int option;
  live : (int, pstate) Hashtbl.t;  (* flow packets still in flight *)
  anon : (int, pstate) Hashtbl.t;  (* packets never announced (transport ACKs) *)
  closed : (int, unit) Hashtbl.t;  (* flow packets already delivered/dropped *)
  failed_links : (int * int, unit) Hashtbl.t;  (* currently-down links, u < v *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable violations : violation list;  (* newest first *)
  mutable max_violations : int;
}

let create ?initial_ttl ?(max_violations = 1000) ~topo () =
  {
    topo;
    initial_ttl;
    live = Hashtbl.create 256;
    anon = Hashtbl.create 16;
    closed = Hashtbl.create 256;
    failed_links = Hashtbl.create 8;
    sent = 0;
    delivered = 0;
    dropped = 0;
    violations = [];
    max_violations;
  }

let violation_count t = List.length t.violations

let violations t = List.rev t.violations

let flag t ~time ~seq kind fmt =
  Format.kasprintf
    (fun what ->
      if violation_count t < t.max_violations then
        t.violations <- { v_kind = kind; v_time = time; v_seq = seq; v_what = what }
          :: t.violations)
    fmt

let check_hop t ~time ~seq ~pkt (ps : pstate) ~node ~next_hop ~ttl =
  if node <> ps.at then
    flag t ~time ~seq Teleport
      "packet %d forwarded from node %d but was last seen headed to node %d"
      pkt node ps.at;
  if next_hop = node then
    flag t ~time ~seq Self_hop "packet %d at node %d forwarded to itself" pkt
      node;
  if not (Netsim.Topology.has_edge t.topo node next_hop) then
    flag t ~time ~seq Non_neighbor_hop
      "packet %d forwarded %d -> %d, but no such link exists" pkt node next_hop;
  (match ps.last_ttl with
  | Some prev when ttl <> prev - 1 ->
    flag t ~time ~seq Ttl_violation
      "packet %d ttl went %d -> %d at node %d (must decrement by exactly 1)"
      pkt prev ttl node
  | Some _ -> ()
  | None -> (
    match t.initial_ttl with
    | Some t0 when ttl <> t0 ->
      flag t ~time ~seq Ttl_violation
        "packet %d first hop carries ttl %d, expected the configured %d" pkt
        ttl t0
    | Some _ | None -> ()));
  if ttl < 1 then
    flag t ~time ~seq Ttl_violation
      "packet %d forwarded with ttl %d (loops must be cut before 0)" pkt ttl;
  ps.at <- next_hop;
  ps.last_ttl <- Some ttl;
  Hashtbl.replace ps.visited next_hop ()

(* Position state for a forwarded packet, adopting unannounced packets
   (transport ACKs) on first sight so they obey the same hop invariants. *)
let pstate_of t ~node pkt =
  match Hashtbl.find_opt t.live pkt with
  | Some ps -> ps
  | None -> (
    match Hashtbl.find_opt t.anon pkt with
    | Some ps -> ps
    | None ->
      let visited = Hashtbl.create 8 in
      Hashtbl.replace visited node ();
      let ps = { p_src = node; p_dst = -1; at = node; last_ttl = None; visited } in
      Hashtbl.replace t.anon pkt ps;
      ps)

let link_key u v = if u < v then (u, v) else (v, u)

let terminate t ~time ~seq ~verb ~pkt = function
  | Some ps ->
    Hashtbl.remove t.live pkt;
    Hashtbl.replace t.closed pkt ();
    Some ps
  | None ->
    let known = Hashtbl.mem t.closed pkt in
    flag t ~time ~seq Unknown_termination "packet %d %s %s" pkt verb
      (if known then "twice (already delivered or dropped)"
       else "but was never sent");
    None

let on_record t { Obs.Sink.time; seq; event } =
  match event with
  | Obs.Event.Packet_sent { pkt; src; dst; _ } ->
    if Hashtbl.mem t.live pkt || Hashtbl.mem t.closed pkt then
      flag t ~time ~seq Duplicate_send "packet id %d sent twice" pkt
    else begin
      t.sent <- t.sent + 1;
      let visited = Hashtbl.create 8 in
      Hashtbl.replace visited src ();
      Hashtbl.replace t.live pkt
        { p_src = src; p_dst = dst; at = src; last_ttl = None; visited }
    end
  | Obs.Event.Packet_forwarded { pkt; node; next_hop; ttl } ->
    check_hop t ~time ~seq ~pkt (pstate_of t ~node pkt) ~node ~next_hop ~ttl
  (* A fast-reroute hop obeys every ordinary hop invariant {e plus} the
     backup-path guarantees: it must never aim at a node the packet already
     visited (residual loops are cut at the data plane) and never cross a
     link that is currently down (the backup exists precisely to route
     around failures, not through them). *)
  | Obs.Event.Frr_forwarded { pkt; node; next_hop; ttl } ->
    let ps = pstate_of t ~node pkt in
    if Hashtbl.mem ps.visited next_hop then
      flag t ~time ~seq Frr_revisit
        "packet %d frr-forwarded %d -> %d, a node it already visited" pkt node
        next_hop;
    if Hashtbl.mem t.failed_links (link_key node next_hop) then
      flag t ~time ~seq Frr_failed_link
        "packet %d frr-forwarded %d -> %d across a failed link" pkt node
        next_hop;
    check_hop t ~time ~seq ~pkt ps ~node ~next_hop ~ttl
  | Obs.Event.Link_failed { u; v } ->
    Hashtbl.replace t.failed_links (link_key u v) ()
  | Obs.Event.Link_healed { u; v } -> Hashtbl.remove t.failed_links (link_key u v)
  | Obs.Event.Packet_delivered { pkt; _ } -> (
    match
      terminate t ~time ~seq ~verb:"delivered" ~pkt (Hashtbl.find_opt t.live pkt)
    with
    | Some ps ->
      t.delivered <- t.delivered + 1;
      if ps.at <> ps.p_dst then
        flag t ~time ~seq Wrong_delivery_node
          "packet %d delivered at node %d, but its destination is %d" pkt ps.at
          ps.p_dst
    | None -> ())
  | Obs.Event.Packet_dropped { pkt; _ } -> (
    match
      terminate t ~time ~seq ~verb:"dropped" ~pkt (Hashtbl.find_opt t.live pkt)
    with
    | Some _ -> t.dropped <- t.dropped + 1
    | None -> ())
  | Obs.Event.Ctrl_sent { src; dst; _ } | Obs.Event.Ctrl_received { src; dst; _ }
    ->
    if not (Netsim.Topology.has_edge t.topo src dst) then
      flag t ~time ~seq Non_neighbor_ctrl
        "control message between non-adjacent routers %d and %d" src dst
  (* Reliable-transport traffic obeys the same adjacency rule as the control
     messages it carries: sessions exist per link, so a retransmission or a
     session reset between non-neighbors is a wiring bug. Retransmission
     itself is legal by design — a control message may be received several
     times (duplication noise, retransmitted segments), which is why control
     receipt is never dedup-checked above. *)
  | Obs.Event.Rtx_sent { src; dst; _ } | Obs.Event.Session_reset { src; dst; _ }
    ->
    if not (Netsim.Topology.has_edge t.topo src dst) then
      flag t ~time ~seq Non_neighbor_ctrl
        "reliable-transport traffic between non-adjacent routers %d and %d" src
        dst
  (* Fault-injection events are environment facts, not protocol actions:
     nothing to hold them to beyond what the link/packet events already
     cover. [Rtx_timeout] likewise only reports a timer expiry. *)
  | Obs.Event.Fault_injected _ | Obs.Event.Node_crash _ | Obs.Event.Node_reboot _
  | Obs.Event.Rtx_timeout _ -> ()
  | _ -> ()

let in_flight t = Hashtbl.length t.live

let finish t =
  let outstanding = in_flight t in
  if t.sent <> t.delivered + t.dropped + outstanding then
    flag t ~time:Float.infinity ~seq:max_int Conservation
      "sent %d <> delivered %d + dropped %d + in flight %d" t.sent t.delivered
      t.dropped outstanding;
  violations t

let sink t = Obs.Sink.callback (on_record t)
