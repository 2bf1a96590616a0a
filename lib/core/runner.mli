(** The simulation harness: wires a topology, links, one protocol instance per
    router, data flows, and link-failure injection, then measures everything
    {!Metrics} records.

    One entry point, {!Make.run_multi}: any number of flows, each carrying
    CBR traffic or a go-back-N transfer, and any number of (possibly
    overlapping, possibly transient) link failures. The paper's scenario —
    one CBR flow from the first row to the last, one failure on its path at
    [failure_time] — is the one-flow, one-failure case that
    [Engine_registry.run] builds.

    Timeline of the paper scenario (defaults in parentheses):
    - [t = 0]: protocols start, warm up, and converge;
    - [traffic_start] (350 s): the sender begins CBR traffic toward the
      receiver (sender on the mesh's first row, receiver on the last row,
      both chosen by the run's RNG);
    - [failure_time] (400 s): a randomly chosen link on the {e current}
      sender->receiver forwarding path fails; both endpoints detect it
      [detection_delay] later;
    - [sim_end] (800 s): measurement stops. *)

type transport_config = {
  window : int;  (** max unacknowledged packets in flight *)
  rto : float;  (** retransmission timeout in seconds *)
  total_packets : int;  (** transfer size; [0] = saturate until [sim_end] *)
  ack_bytes : int;
}

val default_transport : transport_config
(** window 16, RTO 1 s, unlimited transfer, 40-byte ACKs. *)

(** What a flow sends. *)
type traffic =
  | Cbr of float option
      (** constant bit rate, in packets/s; [None]: the config's
          [send_rate_pps] *)
  | Transfer of transport_config
      (** a sliding-window sender with cumulative ACKs and go-back-N timeout
          retransmission — the "simple flow control with a maximal window
          size and retransmission after timeout" workload of the paper's
          reference [25], and a first step toward its future-work end-to-end
          TCP study. Data packets and ACKs ride the same simulated links; the
          flow's packet counters cover the data packets, and its
          {!Metrics.transfer} reports goodput and completion time. *)

type flow_spec = {
  flow_src : Netsim.Types.node_id option;  (** [None]: random first-row router *)
  flow_dst : Netsim.Types.node_id option;  (** [None]: random last-row router *)
  flow_traffic : traffic;
  flow_start : float option;  (** [None]: the config's [traffic_start] *)
}

val default_flow : flow_spec
(** Random endpoints, CBR at the config's rate, from [traffic_start]. *)

type failure_target =
  | Flow_path of int
      (** a random link on the current forwarding path of the i-th flow *)
  | Link of Netsim.Types.node_id * Netsim.Types.node_id  (** a pinned link *)
  | Random_link  (** a random live link of the topology *)

type failure_spec = {
  fail_at : float;
  target : failure_target;
  heal_after : float option;  (** restore the link this long after failing *)
}
(** A failure holds its link down from [fail_at] for [heal_after] (or to the
    end of the run). Failures, flaps and crashes share one refcounted link
    state: a link held down by several causes at once fails and is detected
    once, and heals when the last cause ends. *)

type routing_view = {
  rv_topology : Netsim.Topology.t;
      (** the surviving topology: links currently down are removed *)
  rv_next_hop :
    src:Netsim.Types.node_id -> dst:Netsim.Types.node_id ->
    Netsim.Types.node_id option;
  rv_metric :
    src:Netsim.Types.node_id -> dst:Netsim.Types.node_id -> int option;
  rv_backup :
    (src:Netsim.Types.node_id -> dst:Netsim.Types.node_id ->
     Netsim.Types.node_id option)
    option;
      (** the installed fast-reroute backup next hops (settled against the
          final routing tables); [None] when the run had [~frr:false] *)
}
(** A protocol-agnostic snapshot of every router's converged forwarding
    decisions, taken once the scheduler has drained to [sim_end]. The check
    library's differential oracle compares it against an independent
    shortest-path computation on [rv_topology]. Accessors must not be used
    after the hook returns for a [src] outside [0 .. node_count - 1], and
    are never consulted for [src = dst]. *)

(** {!Make.run_multi} accepts:
    - [?trace] — an {!Obs.Trace.t} receiving the full structured event stream
      (data plane, control plane, environment, scheduler). Defaults to
      {!Obs.Trace.null}, which costs one boolean test per potential event.
    - [?metrics] — an {!Obs.Registry.t} the run populates with
      [scheduler.events_fired], [scheduler.events_scheduled],
      [scheduler.events_skipped], [scheduler.max_queue_depth],
      [scheduler.events_per_cpu_s], [scenario.cpu_s], [gc.minor_words],
      [gc.promoted_words], [gc.major_collections] and
      [alloc.minor_words_per_event] gauges,
      [ctrl.messages]/[ctrl.bytes]/[ctrl.lost]/[sched.timer_fires]/
      [sched.data_forwards] counters, and a [packet.delay_s] histogram of
      CBR delivery delays. Event and callback counts are deterministic;
      the cpu, gc and alloc numbers are honest measurement (and, in
      multi-domain programs, [Gc.quick_stat] aggregates across domains).
    - [?faults] — a {!Fault.Spec.t} describing injected link noise, fault
      schedules (flaps, crashes), and the reliable-control-transport
      configuration. Defaults to {!Fault.Spec.none}, in which case the run's
      traces and metrics are bit-identical to a run without fault support:
      no perturbation draws, no [Rtx] sessions, and link failures take the
      same refcounted down/up path a flap does. When faults are active the
      registry additionally gains [fault.injected_data_drops],
      [fault.injected_ctrl_drops], [rtx.retransmissions], [rtx.timeouts],
      and [rtx.session_resets].
    - [?frr] — enable the fast-reroute layer: every router precomputes a
      loop-free backup next hop per destination ({!Frr}) and degrades
      gracefully onto it whenever its primary route is unusable — aimed at a
      locally-detected-down link, or withdrawn/invalidated by reconvergence
      churn — falling back to normal forwarding once the protocol installs a
      fresh usable primary. Defaults to
      [false], in which case the run's traces and metrics are bit-identical
      to a run without fast-reroute support. When on, the registry gains
      [frr.installs], [frr.activations], [frr.forwards] and
      [frr.exhausted] gauges, and the trace gains the [Frr_*] events. *)
module Make (P : Protocols.Proto_intf.PROTOCOL) : sig
  val run_multi :
    ?label:string ->
    ?topology:Netsim.Topology.t ->
    ?faults:Fault.Spec.t ->
    ?frr:bool ->
    ?trace:Obs.Trace.t ->
    ?monitors:Obs.Sink.t list ->
    ?metrics:Obs.Registry.t ->
    ?on_quiesce:(routing_view -> unit) ->
    flows:flow_spec list ->
    failures:failure_spec list ->
    Config.t ->
    P.config ->
    Metrics.multi
  (** [run_multi ~flows ~failures cfg pcfg] executes one simulation.
      Convergence metrics are measured relative to the {e first} failure.

      [?monitors] are extra sinks — typically invariant checkers from the
      check library — that receive the {e complete} event stream (every
      category, down to [Debug]) regardless of [?trace]'s filters; each gets
      its own sequence numbering. [?on_quiesce] runs once after the scheduler
      drains, with a {!routing_view} of the final routing state.

      @raise Invalid_argument when [Config.validate] rejects [cfg], when
      [flows] is empty, when a [Flow_path] index is out of range, or when a
      [Transfer] has a non-positive window or RTO. *)
end
