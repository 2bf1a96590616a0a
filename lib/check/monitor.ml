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

(* Per-packet state lives in arrays indexed by packet id: the runner numbers
   the packets of a run 0, 1, 2, ..., so ids are dense and a hop costs a few
   array reads and writes, with nothing allocated unless a check fails.

   [status] holds one byte per packet. Its flags follow what the stream has
   said about the id: [live] (announced by [Packet_sent], neither delivered
   nor dropped yet), [anon] (forwarded while not announced — a transport ACK
   — and adopted so it obeys the same hop invariants), [closed] (delivered
   or dropped after an announcement) and [hopped] (the current position has
   been forwarded at least once, so [last_ttl] holds its last TTL). A zero
   byte is an id never seen.

   The position arrays hold the live position when [live] is set, else the
   adopted one: [at] is the node that will next forward (or consume) the
   packet, [last_ttl] the TTL of its last forwarded event, and [vmask]/
   [vhigh] every node the packet has been seen at. Ordinary forwarding may
   legally revisit (transient loops are the object of study), but a
   fast-reroute hop toward a visited node is a violation. Node ids 0..62 are
   one bit of [vmask]; any other id goes to the [vhigh] list, so the set is
   exact at any topology size. [dst] is read only for live packets. *)
let live = 1

let anon = 2

let closed = 4

let hopped = 8

(* An adopted position set aside while the same id is announced: it is what
   a later forward after termination resumes from. The runner never announces
   an id it forwarded unannounced, so this table stays empty in real runs. *)
type position = {
  s_at : int;
  s_ttl : int;
  s_hopped : bool;
  s_vmask : int;
  s_vhigh : int list;
}

type t = {
  topo : Netsim.Topology.t;
  initial_ttl : int option;
  mutable status : Bytes.t;
  mutable dst : int array;
  mutable at : int array;
  mutable last_ttl : int array;
  mutable vmask : int array;
  mutable vhigh : int list array;
  shadowed : (int, position) Hashtbl.t;
  failed_links : (int * int, unit) Hashtbl.t;  (* currently-down links, u < v *)
  mutable in_flight : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable violations : violation list;  (* newest first *)
  mutable violation_count : int;
  max_violations : int;
}

let create ?initial_ttl ?(max_violations = 1000) ~topo () =
  let cap = 256 in
  {
    topo;
    initial_ttl;
    status = Bytes.make cap '\000';
    dst = Array.make cap 0;
    at = Array.make cap 0;
    last_ttl = Array.make cap 0;
    vmask = Array.make cap 0;
    vhigh = Array.make cap [];
    shadowed = Hashtbl.create 1;
    failed_links = Hashtbl.create 8;
    in_flight = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    violations = [];
    violation_count = 0;
    max_violations;
  }

let violation_count t = t.violation_count

let violations t = List.rev t.violations

(* The message is formatted only when it will be recorded. *)
let flag t ~time ~seq kind fmt =
  if t.violation_count < t.max_violations then
    Format.kasprintf
      (fun what ->
        t.violation_count <- t.violation_count + 1;
        t.violations <-
          { v_kind = kind; v_time = time; v_seq = seq; v_what = what }
          :: t.violations)
      fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let check_id pkt =
  if pkt < 0 then
    invalid_arg (Printf.sprintf "Check.Monitor: negative packet id %d" pkt)

let status t pkt =
  check_id pkt;
  if pkt < Bytes.length t.status then Bytes.get_uint8 t.status pkt else 0

let set_status t pkt s = Bytes.set_uint8 t.status pkt s

(* Make room for [pkt] in every per-packet array, doubling. *)
let reserve t pkt =
  check_id pkt;
  let cap = Bytes.length t.status in
  if pkt >= cap then begin
    let cap' = max (pkt + 1) (2 * cap) in
    let grown a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    let status = Bytes.make cap' '\000' in
    Bytes.blit t.status 0 status 0 cap;
    t.status <- status;
    t.dst <- grown t.dst 0;
    t.at <- grown t.at 0;
    t.last_ttl <- grown t.last_ttl 0;
    t.vmask <- grown t.vmask 0;
    t.vhigh <- grown t.vhigh []
  end

let rec mem_int (n : int) = function
  | [] -> false
  | m :: rest -> m = n || mem_int n rest

let visited t pkt n =
  if n >= 0 && n < 63 then t.vmask.(pkt) land (1 lsl n) <> 0
  else mem_int n t.vhigh.(pkt)

let visit t pkt n =
  if n >= 0 && n < 63 then t.vmask.(pkt) <- t.vmask.(pkt) lor (1 lsl n)
  else if not (mem_int n t.vhigh.(pkt)) then t.vhigh.(pkt) <- n :: t.vhigh.(pkt)

(* A fresh position at [node] with no hop yet; [s] is the new status
   before its [hopped] flag is cleared. *)
let place t pkt ~node s =
  set_status t pkt (s land lnot hopped);
  t.at.(pkt) <- node;
  t.vmask.(pkt) <- 0;
  t.vhigh.(pkt) <- [];
  visit t pkt node

let check_hop t ~time ~seq ~pkt ~node ~next_hop ~ttl =
  let at = t.at.(pkt) in
  if node <> at then
    flag t ~time ~seq Teleport
      "packet %d forwarded from node %d but was last seen headed to node %d"
      pkt node at;
  if next_hop = node then
    flag t ~time ~seq Self_hop "packet %d at node %d forwarded to itself" pkt
      node;
  if not (Netsim.Topology.has_edge t.topo node next_hop) then
    flag t ~time ~seq Non_neighbor_hop
      "packet %d forwarded %d -> %d, but no such link exists" pkt node next_hop;
  let s = Bytes.get_uint8 t.status pkt in
  (if s land hopped <> 0 then begin
     let prev = t.last_ttl.(pkt) in
     if ttl <> prev - 1 then
       flag t ~time ~seq Ttl_violation
         "packet %d ttl went %d -> %d at node %d (must decrement by exactly 1)"
         pkt prev ttl node
   end
   else
     match t.initial_ttl with
     | Some t0 when ttl <> t0 ->
       flag t ~time ~seq Ttl_violation
         "packet %d first hop carries ttl %d, expected the configured %d" pkt
         ttl t0
     | Some _ | None -> ());
  if ttl < 1 then
    flag t ~time ~seq Ttl_violation
      "packet %d forwarded with ttl %d (loops must be cut before 0)" pkt ttl;
  t.at.(pkt) <- next_hop;
  t.last_ttl.(pkt) <- ttl;
  set_status t pkt (s lor hopped);
  visit t pkt next_hop

(* Adopt an unannounced packet (a transport ACK) on first sight, so it obeys
   the same hop invariants; a live or adopted packet keeps its position. *)
let adopt t ~node pkt =
  reserve t pkt;
  let s = Bytes.get_uint8 t.status pkt in
  if s land (live lor anon) = 0 then place t pkt ~node (s lor anon)

let announce t ~pkt ~src ~dst s =
  reserve t pkt;
  if s land anon <> 0 then
    Hashtbl.replace t.shadowed pkt
      {
        s_at = t.at.(pkt);
        s_ttl = t.last_ttl.(pkt);
        s_hopped = s land hopped <> 0;
        s_vmask = t.vmask.(pkt);
        s_vhigh = t.vhigh.(pkt);
      };
  place t pkt ~node:src (s lor live);
  t.dst.(pkt) <- dst;
  t.in_flight <- t.in_flight + 1;
  t.sent <- t.sent + 1

(* Close a live packet: its adopted position, if one was set aside, comes
   back. Returns false (after flagging) when the packet was not live. *)
let terminate t ~time ~seq ~verb ~pkt =
  let s = status t pkt in
  if s land live <> 0 then begin
    t.in_flight <- t.in_flight - 1;
    let s = (s land lnot live) lor closed in
    (if s land anon <> 0 then begin
       let p = Hashtbl.find t.shadowed pkt in
       Hashtbl.remove t.shadowed pkt;
       t.at.(pkt) <- p.s_at;
       t.last_ttl.(pkt) <- p.s_ttl;
       t.vmask.(pkt) <- p.s_vmask;
       t.vhigh.(pkt) <- p.s_vhigh;
       set_status t pkt (if p.s_hopped then s lor hopped else s land lnot hopped)
     end
     else set_status t pkt s);
    true
  end
  else begin
    flag t ~time ~seq Unknown_termination "packet %d %s %s" pkt verb
      (if s land closed <> 0 then "twice (already delivered or dropped)"
       else "but was never sent");
    false
  end

let link_key u v = if u < v then (u, v) else (v, u)

let on_record t { Obs.Sink.time; seq; event } =
  match event with
  | Obs.Event.Packet_sent { pkt; src; dst; _ } ->
    let s = status t pkt in
    if s land (live lor closed) <> 0 then
      flag t ~time ~seq Duplicate_send "packet id %d sent twice" pkt
    else announce t ~pkt ~src ~dst s
  | Obs.Event.Packet_forwarded { pkt; node; next_hop; ttl } ->
    adopt t ~node pkt;
    check_hop t ~time ~seq ~pkt ~node ~next_hop ~ttl
  (* A fast-reroute hop obeys every ordinary hop invariant {e plus} the
     backup-path guarantees: it must never aim at a node the packet already
     visited (residual loops are cut at the data plane) and never cross a
     link that is currently down (the backup exists precisely to route
     around failures, not through them). *)
  | Obs.Event.Frr_forwarded { pkt; node; next_hop; ttl } ->
    adopt t ~node pkt;
    if visited t pkt next_hop then
      flag t ~time ~seq Frr_revisit
        "packet %d frr-forwarded %d -> %d, a node it already visited" pkt node
        next_hop;
    if Hashtbl.mem t.failed_links (link_key node next_hop) then
      flag t ~time ~seq Frr_failed_link
        "packet %d frr-forwarded %d -> %d across a failed link" pkt node
        next_hop;
    check_hop t ~time ~seq ~pkt ~node ~next_hop ~ttl
  | Obs.Event.Link_failed { u; v } ->
    Hashtbl.replace t.failed_links (link_key u v) ()
  | Obs.Event.Link_healed { u; v } -> Hashtbl.remove t.failed_links (link_key u v)
  | Obs.Event.Packet_delivered { pkt; _ } ->
    (* Read the live position before [terminate] may restore an adopted one. *)
    let at = if status t pkt land live <> 0 then t.at.(pkt) else -1 in
    if terminate t ~time ~seq ~verb:"delivered" ~pkt then begin
      t.delivered <- t.delivered + 1;
      let dst = t.dst.(pkt) in
      if at <> dst then
        flag t ~time ~seq Wrong_delivery_node
          "packet %d delivered at node %d, but its destination is %d" pkt at
          dst
    end
  | Obs.Event.Packet_dropped { pkt; _ } ->
    if terminate t ~time ~seq ~verb:"dropped" ~pkt then
      t.dropped <- t.dropped + 1
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

let in_flight t = t.in_flight

let finish t =
  let outstanding = in_flight t in
  if t.sent <> t.delivered + t.dropped + outstanding then
    flag t ~time:Float.infinity ~seq:max_int Conservation
      "sent %d <> delivered %d + dropped %d + in flight %d" t.sent t.delivered
      t.dropped outstanding;
  violations t

let sink t = Obs.Sink.callback (on_record t)
