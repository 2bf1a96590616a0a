(** Precomputed loop-free alternate (LFA) backup next hops for IP fast
    reroute.

    Every router precomputes, per destination, one backup next hop that is
    provably loop-free with respect to the converged routing state: neighbor
    [alt] of [self] qualifies for destination [dst] iff

    {v dist(alt, dst) < dist(alt, self) + dist(self, dst) v}

    which, with this simulator's unit link costs, is
    [metric alt dst < 1 + metric self dst]. Downstream alternates
    ([metric alt dst < metric self dst]) are preferred, then the lowest
    metric, then the lowest node id — the table is a deterministic function
    of the routing tables it was computed from.

    The module is pure bookkeeping (dense int arrays, no scheduler): the
    owning runner decides {e when} to recompute (debounced sweeps over
    dirty destinations), {e when} a node's local failure detection fires
    ({!mark_down}), and how backups are used in forwarding. A packet must
    never be backup-forwarded to a node it has already visited — the LFA
    guarantee is relative to converged state, and the data plane enforces
    the residual loop-freedom (see DESIGN.md §16). *)

type t

val create : Netsim.Topology.t -> t
(** [create topo] builds the empty backup state for [topo]. Detection marks
    are kept per directed-link slot of [topo] ([Netsim.Topology.slot]), and
    backups are chosen among [topo]'s neighbors. *)

val node_count : t -> int

(** {2 Local failure detection}

    A directed view: each endpoint of a failed link detects (and recovers)
    independently, [detection_delay] after the physical event — exactly when
    the routing protocol learns of it. *)

val mark_down : t -> node:int -> neighbor:int -> bool
(** [mark_down t ~node ~neighbor] records that [node] locally detected its
    link to [neighbor] down. Returns [true] when newly marked (the caller
    emits the activation event), [false] when already marked or no such
    link exists. *)

val mark_up : t -> node:int -> neighbor:int -> unit
(** Clears a detection mark; a no-op when not marked. *)

val active : t -> int -> bool
(** [active t node]: does [node] currently have any locally-detected-down
    incident link? One array load — this gates the forwarding hot path. *)

val is_down : t -> node:int -> neighbor:int -> bool
(** Is the directed link [node -> neighbor] locally detected down? One slot
    lookup (a binary search over [node]'s row); the runner asks it on every
    hop it forwards with fast reroute on. *)

(** {2 The backup table} *)

val backup_id : t -> node:int -> dst:int -> int
(** Installed backup next hop, or [-1]. Allocation-free. *)

val backup : t -> node:int -> dst:int -> int option

val mark_dirty : t -> dst:int -> unit
(** A route toward [dst] changed somewhere; [dst]'s backup column is
    recomputed at the next {!sweep}. Out-of-range destinations are
    ignored. *)

val arm_sweep : t -> bool
(** [arm_sweep t] is [true] exactly once per debounce window: the first
    caller schedules the sweep, later callers see [false] until {!sweep}
    runs. *)

val dirty_backups_via : t -> node:int -> neighbor:int -> unit
(** Mark dirty every destination whose installed backup at [node] is
    [neighbor] — call when [node] detects its link to [neighbor] down, so
    alternates crossing the dead link are recomputed even if no route
    toward those destinations ever changes. *)

val dirty_missing_backups : t -> node:int -> unit
(** Mark dirty every destination with no installed backup at [node] — call
    when a link at [node] heals, since the returning neighbor can only
    {e add} alternates, and only at the healing endpoints. *)

val sweep :
  t ->
  metric:(node:int -> dst:int -> int option) ->
  next_hop:(node:int -> dst:int -> int option) ->
  on_install:(node:int -> dst:int -> backup:int -> unit) ->
  unit
(** Recompute the backup column of every dirty destination against the
    protocol's current tables, then clear the dirty set and the armed flag.
    [on_install] fires for every cell whose backup {e changed} to a real
    next hop (transitions to "no backup" are silent). *)

val compute_backup :
  t ->
  metric:(node:int -> dst:int -> int option) ->
  next_hop:(node:int -> dst:int -> int option) ->
  node:int ->
  dst:int ->
  int
(** The LFA selection rule itself, exposed for the differential oracle:
    best backup for [(node, dst)] under the given tables, or [-1]. A
    backup exists only alongside a live primary route. *)
