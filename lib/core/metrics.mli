(** Per-run outcomes.

    A {!run} captures everything the paper reports for a single simulation:
    packet fates broken down by drop reason, the receiver's throughput and
    delay time series, convergence delays, and the forwarding-path history.
    Campaign cells ([Campaign.Cell_result]) lift runs into rows, and their
    artifacts aggregate the seeds of one (protocol, degree) point. *)

type run = {
  protocol : string;
  degree : int;
  seed : int;
  src : Netsim.Types.node_id;
  dst : Netsim.Types.node_id;
  sent : int;
  delivered : int;
  drops_no_route : int;
  drops_ttl : int;
  drops_queue : int;
  drops_link : int;  (** dropped on/over the failed link before detection *)
  drops_injected : int;  (** discarded or corrupted by fault injection *)
  looped_delivered : int;  (** delivered packets that escaped a loop *)
  looped_dropped : int;  (** dropped packets that had looped *)
  ctrl_messages : int;
  ctrl_bytes : int;
  ctrl_lost : int;  (** control messages lost to the link failure *)
  throughput : Dessim.Series.t;  (** received packets per 1 s bucket *)
  delay : Dessim.Series.t;  (** per-bucket mean end-to-end delay *)
  fwd_convergence : float;
      (** forwarding-path convergence delay: failure -> sender/receiver path
          permanently equal to its final value (paper Fig. 6a) *)
  routing_convergence : float;
      (** network routing convergence: failure -> last best-route change at
          any router (paper Fig. 6b) *)
  transient_paths : int;
      (** distinct sender->receiver forwarding paths observed between failure
          and forwarding convergence *)
  failed_link : (Netsim.Types.node_id * Netsim.Types.node_id) option;
  pre_failure_path : Netsim.Types.node_id list;
  final_path : Netsim.Types.node_id list;
  final_path_complete : bool;
  sched_events : int;
      (** scheduler events fired during the run — the denominator for
          events/sec and allocations/event in the perf harness *)
}

val total_drops : run -> int

val conservation_ok : run -> bool
(** [sent = delivered + drops + in-flight-at-end]; in-flight is inferred, so
    this checks the other counters are consistent (non-negative residue no
    larger than what the pipe could hold). *)

val in_flight : run -> int

val pp_run : run Fmt.t

(** {2 Multi-flow, multi-failure outcomes}

    The paper's future work (Section 6) extends the study to "multiple pairs
    of data sources and destinations, as well as multiple failures which can
    potentially overlay with each other in time". A {!multi} captures one
    such run: per-flow delivery outcomes plus run-global control-plane
    accounting. *)

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
  f_drops_link : int;
  f_drops_injected : int;
  f_looped_delivered : int;
  f_looped_dropped : int;
  f_throughput : Dessim.Series.t;
  f_delay : Dessim.Series.t;
  f_fwd_convergence : float;
  f_transient_paths : int;
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
  m_ctrl_lost : int;
  m_routing_convergence : float;
      (** measured from the {e first} failure to the last route change *)
  m_failed_links : (Netsim.Types.node_id * Netsim.Types.node_id) list;
  m_sched_events : int;  (** scheduler events fired during the run *)
}

val flow_delivery_ratio : flow -> float
(** [delivered / sent]; [1.] when nothing was sent. *)

val flow_total_drops : flow -> int

val multi_sent : multi -> int

val multi_delivered : multi -> int

val pp_flow : flow Fmt.t

val pp_multi : multi Fmt.t

val run_of_multi : multi -> run
(** Flatten a single-flow, at-most-one-failure [multi] into the classic
    {!run} shape. @raise Invalid_argument when there is not exactly one
    flow. *)
