(** Per-run outcomes.

    A {!multi} captures everything one simulation reports: per-flow packet
    fates broken down by drop reason, the receiver's throughput and delay
    time series, forwarding convergence and the forwarding-path history,
    plus run-global control-plane accounting. The paper's scenario (one CBR
    flow, one link failure) is the one-flow case; its Section 6 future work —
    "multiple pairs of data sources and destinations, as well as multiple
    failures which can potentially overlay with each other in time" — is the
    general one. Campaign cells ([Campaign.Cell_result]) lift outcomes into
    rows, and their artifacts aggregate the seeds of one (protocol, degree)
    point. *)

type transfer = {
  t_completed : int;  (** packets acknowledged in order *)
  t_retransmissions : int;
  t_duplicates : int;  (** data packets that arrived more than once *)
  t_completed_at : float option;
      (** when the whole transfer finished, if it did *)
  t_goodput : Dessim.Series.t;
      (** newly acknowledged packets per 1 s bucket, at the sender *)
}
(** What a go-back-N transfer achieved, beyond its flow's packet fates. *)

type flow = {
  f_src : Netsim.Types.node_id;
  f_dst : Netsim.Types.node_id;
  f_sent : int;
  f_delivered : int;
  f_drops_no_route : int;
  f_drops_ttl : int;
  f_drops_queue : int;
  f_drops_link : int;  (** dropped on/over a failed link before detection *)
  f_drops_injected : int;  (** discarded or corrupted by fault injection *)
  f_looped_delivered : int;  (** delivered packets that escaped a loop *)
  f_looped_dropped : int;  (** dropped packets that had looped *)
  f_throughput : Dessim.Series.t;  (** received packets per 1 s bucket *)
  f_delay : Dessim.Series.t;  (** per-bucket mean end-to-end delay *)
  f_fwd_convergence : float;
      (** forwarding-path convergence delay: first failure -> sender/receiver
          path permanently equal to its final value (paper Fig. 6a) *)
  f_transient_paths : int;
      (** distinct sender->receiver forwarding paths observed between the
          failure and forwarding convergence *)
  f_pre_failure_path : Netsim.Types.node_id list;
  f_final_path : Netsim.Types.node_id list;
  f_final_path_complete : bool;
  f_transfer : transfer option;  (** [Some _] for transfer flows *)
}

type multi = {
  m_protocol : string;
  m_degree : int;
  m_seed : int;
  m_flows : flow list;
  m_ctrl_messages : int;
  m_ctrl_bytes : int;
  m_ctrl_lost : int;  (** control messages lost to link failures *)
  m_routing_convergence : float;
      (** network routing convergence, measured from the {e first} failure to
          the last best-route change at any router (paper Fig. 6b) *)
  m_failed_links : (Netsim.Types.node_id * Netsim.Types.node_id) list;
  m_sched_events : int;
      (** scheduler events fired during the run — the denominator for
          events/sec and allocations/event in the perf harness *)
}

val flow_delivery_ratio : flow -> float
(** [delivered / sent]; [1.] when nothing was sent. *)

val flow_total_drops : flow -> int

val flow_in_flight : flow -> int
(** [sent - delivered - drops]: the flow's packets still queued or
    propagating when the run ended. A negative value means the counters are
    inconsistent. *)

val multi_sent : multi -> int

val multi_delivered : multi -> int

val pp_flow : flow Fmt.t
(** One flow: endpoints, packet fates (in flight included), forwarding
    convergence, transient paths, loop escapees, and the pre-failure and
    final forwarding paths. *)

val pp_multi : multi Fmt.t
(** The run report: protocol, degree, seed, failed links, routing
    convergence and control-plane volume once, then {!pp_flow} per flow. *)
