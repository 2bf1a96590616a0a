(** First-class protocol engines: a protocol module packed with the
    configuration the paper runs it under, so sweeps can iterate over
    heterogeneous protocols uniformly. *)

type t =
  | Engine :
      (module Protocols.Proto_intf.PROTOCOL with type config = 'c) * 'c * string
      -> t

val name : t -> string

val rip : t
(** RIP with RFC 2453 defaults. *)

val dbf : t
(** Distributed Bellman-Ford with the same timers as RIP. *)

val bgp : t
(** BGP, MRAI mean 30 s, per-neighbor. *)

val bgp3 : t
(** The paper's specially parameterized BGP: MRAI mean 3 s. *)

val bgp_per_dest : t
(** BGP, MRAI mean 30 s, per-(neighbor, destination) — the ablation the paper
    speculates about in Section 5.2. *)

val bgp3_rfd : t
(** BGP-3 with route flap damping enabled (the intro's [4]/[15] mechanism). *)

val ls : t
(** Link-state (future-work extension). *)

val paper_four : t list
(** The four engines of the paper's figures: RIP, DBF, BGP, BGP-3. *)

val all : t list

val find : string -> t option
(** Case-insensitive lookup by display name. *)

val run_multi :
  ?topology:Netsim.Topology.t ->
  ?faults:Fault.Spec.t ->
  ?frr:bool ->
  ?trace:Obs.Trace.t ->
  ?monitors:Obs.Sink.t list ->
  ?metrics:Obs.Registry.t ->
  ?on_quiesce:(Runner.routing_view -> unit) ->
  flows:Runner.flow_spec list ->
  failures:Runner.failure_spec list ->
  Config.t ->
  t ->
  Metrics.multi
(** Execute a scenario under the given engine: {!Runner.Make.run_multi}
    labelled with the engine's name. *)

val run :
  ?topology:Netsim.Topology.t ->
  ?faults:Fault.Spec.t ->
  ?frr:bool ->
  ?src:Netsim.Types.node_id ->
  ?dst:Netsim.Types.node_id ->
  ?trace:Obs.Trace.t ->
  ?monitors:Obs.Sink.t list ->
  ?metrics:Obs.Registry.t ->
  ?on_quiesce:(Runner.routing_view -> unit) ->
  ?fail_link:Netsim.Types.node_id * Netsim.Types.node_id ->
  ?restore_after:float ->
  Config.t ->
  t ->
  Metrics.multi
(** The paper's single-flow scenario: {!run_multi} with one CBR flow
    ([?src]/[?dst], random first-row and last-row routers by default) and one
    failure at [cfg.failure_time] on that flow's path (or on [?fail_link]),
    healed after [?restore_after] (never, by default). *)
