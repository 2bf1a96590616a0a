(** The typed trace-event model.

    Every observable simulation occurrence is one constructor of {!t}, grouped
    into four {!category}s that sinks and filters operate on:

    - {!Data}: the data plane — per-packet fates and forwarding-loop episodes
      on a flow's path;
    - {!Control}: the control plane — routing messages sent/received/lost,
      protocol timers, MRAI deferrals;
    - {!Env}: the environment — link failures/heals, best-route changes, and
      resampled forwarding paths;
    - {!Sched}: engine instrumentation emitted once per run.

    Node ids, flow indices, and packet ids are plain [int]s so a trace is
    self-contained (replayable without the topology). *)

type category = Data | Control | Env | Sched

val all_categories : category list

val category_index : category -> int
(** A dense index in [0..3], for filter bitsets. *)

val string_of_category : category -> string

type severity = Debug | Info | Warn

val severity_rank : severity -> int
(** [Debug < Info < Warn]. *)

val string_of_severity : severity -> string

type path_kind = Path_complete | Path_broken | Path_looping

val string_of_path_kind : path_kind -> string
val path_kind_of_string : string -> path_kind option

(** How a protocol classifies one of its control messages. Distance-vector
    adverts mix reachable and poisoned entries, hence [Mixed]. *)
type msg_kind = Update | Withdrawal | Mixed

val string_of_msg_kind : msg_kind -> string
val msg_kind_of_string : string -> msg_kind option

type t =
  | Packet_sent of { flow : int; pkt : int; src : int; dst : int }
  | Packet_forwarded of { pkt : int; node : int; next_hop : int; ttl : int }
      (** one hop of a data packet; [ttl] is the value {e before} decrement *)
  | Packet_delivered of { flow : int; pkt : int; delay : float; looped : bool }
  | Packet_dropped of {
      flow : int;
      pkt : int;
      reason : Netsim.Types.drop_reason;
      looped : bool;
    }
  | Loop_enter of { flow : int; cycle : int list }
      (** the flow's sampled forwarding path entered this cycle *)
  | Loop_exit of { flow : int; cycle : int list; duration : float }
  | Frr_installed of { node : int; dst : int; backup : int }
      (** the fast-reroute layer (re)computed a loop-free backup next hop *)
  | Frr_activated of { node : int; neighbor : int }
      (** [node] locally detected its link to [neighbor] down and switched
          affected traffic onto backup next hops until reconvergence *)
  | Frr_forwarded of { pkt : int; node : int; next_hop : int; ttl : int }
      (** one hop taken via a backup next hop instead of the (dead) primary;
          [ttl] is the value {e before} decrement, as in [Packet_forwarded] *)
  | Frr_exhausted of { pkt : int; node : int }
      (** fast reroute was active at [node] but no usable backup existed; the
          packet falls through to the normal (drop) path *)
  | Ctrl_sent of { proto : string; src : int; dst : int; kind : msg_kind; bits : int }
  | Ctrl_received of { proto : string; src : int; dst : int; kind : msg_kind }
  | Ctrl_lost of { reason : Netsim.Types.drop_reason }
  | Timer_fired of { node : int }  (** a protocol timer callback ran *)
  | Mrai_defer of { node : int; neighbor : int; dsts : int }
      (** BGP batched [dsts] changed destinations behind a closed MRAI gate *)
  | Link_failed of { u : int; v : int }
  | Link_healed of { u : int; v : int }
  | Route_changed of { node : int; dst : int }
  | Path_changed of { flow : int; kind : path_kind; path : int list }
  | Fault_injected of { u : int; v : int; what : string }
      (** the perturbation layer acted on link [u]-[v]; [what] is one of
          ["drop"], ["corrupt"], ["duplicate"], ["reorder"] *)
  | Node_crash of { node : int }
      (** fault schedule crashed a router: adjacent links down, state lost *)
  | Node_reboot of { node : int }
      (** crashed router restarted with a fresh protocol instance *)
  | Rtx_sent of { proto : string; src : int; dst : int; seq : int; attempt : int }
      (** reliable-transport retransmission ([attempt >= 1]; the original
          transmission is the protocol's own [Ctrl_sent]) *)
  | Rtx_timeout of { src : int; dst : int; rto : float; attempt : int }
      (** retransmission timer expired after [rto] seconds *)
  | Session_reset of { src : int; dst : int; epoch : int }
      (** reliable session torn down (retry cap or link down); [epoch] is the
          new sending epoch after the reset *)
  | Sched_stats of { events : int; max_queue : int; cpu_s : float }
      (** emitted once at the end of a run *)

val category : t -> category

val severity : t -> severity
(** Per-hop forwarding and timer fires are [Debug] (high volume); drops,
    loop entries, lost control messages, link failures {e and heals}, node
    crashes/reboots, rtx timeouts, and session resets are [Warn] — heal is
    symmetric with failure so flap schedules survive severity filtering;
    everything else is [Info]. *)

val name : t -> string
(** Stable snake_case tag, also used as the JSON ["ev"] discriminator. *)

val pp : t Fmt.t

val to_fields : t -> (string * Json.t) list
(** Flat key/value encoding, ["ev"] first; the JSONL sink wraps these in an
    object together with the record's time and sequence number. *)

val of_fields : Json.t -> t option
(** Inverse of {!to_fields} over a JSON object; [None] when the ["ev"] tag is
    unknown or a field is missing/mistyped. *)
