(** Machinery shared by the distance-vector protocols (RIP and DBF).

    Covers the wire format (vectors of (destination, metric) entries, chunked
    into messages of at most [max_entries] entries as RFC 2453 prescribes),
    message sizing, and the triggered-update damping gate that spaces
    consecutive triggered updates by a random 1-5 s interval. *)

type entry = { dst : Netsim.Types.node_id; metric : int }

type message = entry list
(** One update message: at most [config.max_entries] entries. *)

type config = {
  period : float;  (** periodic full-table update interval (30 s) *)
  timeout : float;  (** route expiration when not refreshed (180 s) *)
  infinity_metric : int;  (** unreachability metric (16) *)
  damp_min : float;  (** triggered-update damping lower bound (1 s) *)
  damp_max : float;  (** triggered-update damping upper bound (5 s) *)
  max_entries : int;  (** destination entries per message (25) *)
  header_bytes : int;
  entry_bytes : int;
}

val default_config : config
(** RFC 2453 values: 30 s period, 180 s timeout, infinity 16, damping 1-5 s,
    25 entries, 32-byte header, 20-byte entries. *)

val message_size_bits : config -> message -> int

val pp_message : message Fmt.t

val message_kind : message -> Proto_intf.message_kind
(** Always {!Proto_intf.Mixed}: one vector carries reachable and poisoned
    entries alike. *)

val chunk : config -> entry list -> message list
(** [chunk cfg entries] splits [entries] into messages of at most
    [cfg.max_entries] entries, preserving order. *)

val jittered_period : Dessim.Rng.t -> config -> float
(** [jittered_period rng cfg] is the next periodic-update delay: the period
    offset by a small random amount ([+-5%]) to avoid update synchronization
    across routers, per RFC 2453. *)

(** The triggered-update gate.

    The first change after a quiet interval flushes immediately; the gate then
    closes for a random [damp_min .. damp_max] interval. Changes arriving
    while closed are flushed in one batch when the gate reopens (which closes
    it again). This is the mechanism the paper identifies as lengthening
    inconsistency windows (Section 4.3). *)
module Trigger : sig
  type t

  val create :
    rng:Dessim.Rng.t ->
    after:(float -> (unit -> unit) -> Dessim.Scheduler.handle) ->
    min_delay:float ->
    max_delay:float ->
    flush:(unit -> unit) ->
    t
  (** [flush] must send the pending triggered update and clear the pending
      set; it is only invoked when {!request} was called since the last
      flush. *)

  val request : t -> unit
  (** Signal that a triggered update is wanted. *)

  val gate_open : t -> bool
  (** True when the next {!request} would flush immediately. *)

  val note_full_update_sent : t -> unit
  (** Inform the gate that a periodic full-table update just went out, so a
      pending triggered update is now redundant and can be forgotten. *)
end

(** {1 The two protocols}

    RIP and DBF share one router (table, live neighbors, triggered updates,
    split horizon, periodic cycle) and differ only in their rules for heard
    vectors and timeouts. [Rip] and [Dbf] publish and document them. *)

module Rip : Proto_intf.PROTOCOL with type config = config and type message = message

module Dbf : sig
  include Proto_intf.PROTOCOL with type config = config and type message = message

  val cached_metric :
    t -> neighbor:Netsim.Types.node_id -> dst:Netsim.Types.node_id -> int option
end
