(** Transient-loop identification from forwarding traces.

    The paper's methodology (Section 2): "studying the forwarding and routing
    trace files, thus we can identify the causes of routing loops in each
    circumstance". This module extracts the cycle a sampled forwarding path
    is caught in. The runner turns cycle changes into [Loop_enter]/
    [Loop_exit] trace events, and [Obs.Replay.loop_report] pairs those into
    episodes — the paper's point
    that looping duration (lengthened by damping/MRAI timers) is what turns a
    transient inconsistency into TTL expirations. *)

val cycle_of_path : Observer.path_result -> Netsim.Types.node_id list option
(** [cycle_of_path p] is the normalized cycle when [p] is [Looping], [None]
    otherwise. A cycle is normalized to start at its smallest id, in
    forwarding order; e.g. [[2; 7; 12]] means 2 -> 7 -> 12 -> 2. *)
