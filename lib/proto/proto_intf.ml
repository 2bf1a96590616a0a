(** The interface every routing protocol implements.

    A protocol instance runs inside one router. It never touches the network
    directly: the simulation harness hands it an {!actions} record whose
    callbacks send control messages to neighbors, set timers, and report
    best-route changes to the measurement layer. *)

(** The broad class of a control message, for observers that count updates
    and withdrawals per protocol without decoding protocol wire formats. *)
type message_kind = Update | Withdrawal | Mixed

type 'msg actions = {
  now : unit -> float;  (** current simulation time *)
  send : Netsim.Types.node_id -> 'msg -> unit;
      (** transmit a control message to a directly connected neighbor *)
  after : float -> (unit -> unit) -> Dessim.Scheduler.handle;
      (** set a cancellable timer *)
  route_changed : Netsim.Types.node_id -> unit;
      (** notify observers that the best route to a destination changed
          (metric or next hop) *)
  mrai_deferred : Netsim.Types.node_id -> int -> unit;
      (** [mrai_deferred neighbor dsts]: [dsts] changed destinations queued
          behind a closed MRAI gate toward [neighbor]. Invisible from the
          outside (no message is sent, no route changes), so only the trace
          layer listens; harnesses that do not trace install a no-op. *)
}

module type PROTOCOL = sig
  type t
  (** per-router protocol state *)

  type message
  (** the protocol's wire format *)

  type config

  val name : string

  val uses_reliable_transport : bool
  (** [true] for protocols running over a TCP-like channel (BGP, and OSPF-style
      reliable flooding): their messages are never lost to queue overflow,
      only to link failure. *)

  val default_config : config

  val message_size_bits : message -> int
  (** wire size, charged against link bandwidth *)

  val message_kind : message -> message_kind
  (** how observers should classify the message: an advertisement, an
      explicit withdrawal, or a vector mixing both (distance-vector
      protocols advertise reachable and poisoned entries together) *)

  val pp_message : message Fmt.t

  val create :
    config ->
    rng:Dessim.Rng.t ->
    id:Netsim.Types.node_id ->
    neighbors:Netsim.Types.node_id list ->
    actions:message actions ->
    t
  (** [create cfg ~rng ~id ~neighbors ~actions] builds the state for router
      [id] whose attached (initially up) links lead to [neighbors]. *)

  val start : t -> unit
  (** begin operation: install the self route, announce, start timers *)

  val on_message : t -> from:Netsim.Types.node_id -> message -> unit
  (** a control message from direct neighbor [from] arrived. The harness
      profiles this callback (and every timer set through [actions]) under
      the [proto.<name>.on_message] / [proto.<name>.timer] scopes of
      [Obs.Prof], so protocol implementations need no instrumentation of
      their own to show up in [rcsim campaign --prof]'s hot-scope report. *)

  val on_link_down : t -> neighbor:Netsim.Types.node_id -> unit
  (** the link to [neighbor] was detected down *)

  val on_link_up : t -> neighbor:Netsim.Types.node_id -> unit
  (** the link to [neighbor] came (back) up *)

  val next_hop : t -> dst:Netsim.Types.node_id -> Netsim.Types.node_id option
  (** the forwarding decision: [None] means the router drops packets for
      [dst] (no route). Never consulted for [dst = id]. *)

  val metric : t -> dst:Netsim.Types.node_id -> int option
  (** current best metric (hop count / path length) toward [dst], if any *)

  val known_destinations : t -> Netsim.Types.node_id list
  (** destinations present in the routing table (reachable or not), sorted *)
end

type 'c protocol = (module PROTOCOL with type config = 'c)
