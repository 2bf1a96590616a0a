(** Runtime invariant monitors over the structured trace stream.

    A monitor is an {!Obs.Sink.t} that shadows the data and control planes of
    one run and flags any event sequence no correct simulation can produce:

    - {b packet conservation} — every announced packet is delivered or dropped
      at most once, never resurrected, and at the end of the run
      [sent = delivered + dropped + in-flight];
    - {b TTL-bounded forwarding} — along each packet's hop sequence the TTL
      decrements by exactly 1, never reaches 0 in flight, and (when the
      configured initial TTL is supplied) starts from it — so a forwarding
      loop can occupy at most TTL hops;
    - {b next-hop validity} — every forward uses an edge of the topology and
      never points a packet at the node it is already on, and each hop starts
      where the previous hop ended (no teleporting);
    - {b delivery locality} — a packet is delivered only at its destination;
    - {b control-plane adjacency} — routing messages travel only between
      neighboring routers;
    - {b fast-reroute discipline} — a backup-forwarded packet
      ([Frr_forwarded]) never hops toward a node it already visited and never
      crosses a link currently down (tracked from [Link_failed]/[Link_healed]),
      on top of every ordinary hop invariant.

    Attach one via {!Runner.Make.run_multi}'s [?monitors], which feeds it the
    complete unfiltered event stream. *)

type kind =
  | Duplicate_send
  | Unknown_termination
      (** delivered/dropped an id never sent, or a second time *)
  | Ttl_violation
  | Teleport
  | Self_hop
  | Non_neighbor_hop
  | Wrong_delivery_node
  | Non_neighbor_ctrl
  | Conservation
  | Frr_revisit  (** fast-reroute hop toward an already-visited node *)
  | Frr_failed_link  (** fast-reroute hop across a failed link *)

val string_of_kind : kind -> string

type violation = {
  v_kind : kind;
  v_time : float;  (** simulation time of the offending event *)
  v_seq : int;  (** its sequence number in the monitored stream *)
  v_what : string;
}

val pp_violation : violation Fmt.t

type t

val create :
  ?initial_ttl:int ->
  ?max_violations:int ->
  topo:Netsim.Topology.t ->
  unit ->
  t
(** [create ~topo ()] builds a monitor for one run over [topo] (the {e full}
    static topology — links may legitimately be down, but edges can never
    appear out of thin air). [?initial_ttl] additionally pins every packet's
    first-hop TTL to the configured value. Recording stops after
    [?max_violations] (default 1000) to bound memory on badly broken runs. *)

val sink : t -> Obs.Sink.t
(** The sink to pass as a [?monitors] element.

    Per-packet state is kept in arrays indexed by packet id, as the runner
    numbers a run's packets 0, 1, 2, ...; memory grows with the largest id
    seen. A packet event whose id is negative raises [Invalid_argument]
    naming the id (the runner never makes one). *)

val finish : t -> violation list
(** End-of-run check: verifies packet conservation, then returns every
    violation in stream order. Call after the run returns. *)

val violations : t -> violation list
(** Violations recorded so far, oldest first (without the end-of-run check). *)

val violation_count : t -> int

val in_flight : t -> int
(** Announced packets neither delivered nor dropped yet. *)
