(** Dense routing state keyed by node index.

    Distance-vector routing tables map small integer node ids to a metric
    and a next hop; storing them in flat growable arrays makes the
    forwarding-path lookup an array read and route updates in-place writes.
    A destination is {e present} once a route has been installed for it —
    presence is independent of the metric value, matching the hash-table
    tables this replaces where invalidated routes stayed in the table at
    infinity. *)

type t

val create : unit -> t

val mem : t -> int -> bool
(** [mem t dst] is true once [set] or [set_metric] has installed [dst]. *)

val metric : t -> int -> int
(** [metric t dst] is the stored metric, or [-1] when [dst] is absent. *)

val next_hop_id : t -> int -> int
(** [next_hop_id t dst] is the stored next hop, [-1] meaning none (the self
    route, or an absent destination). *)

val next_hop : t -> int -> int option
(** [next_hop t dst] is [next_hop_id] as an option — preallocated on write,
    so the per-hop forwarding query allocates nothing. *)

val set : t -> dst:int -> metric:int -> next_hop:int -> unit

val set_metric : t -> dst:int -> metric:int -> unit

val set_next_hop : t -> dst:int -> next_hop:int -> unit

val iter : t -> (int -> unit) -> unit
(** [iter t f] applies [f] to every present destination in ascending order. *)

val destinations : t -> int list
(** Present destinations, ascending — the same list the hash-table
    implementation produced with [Hashtbl.fold ... |> List.sort compare]. *)

(** Growable [int] vector with an out-of-bounds default, for dense
    per-neighbor heard-metric vectors (adj-RIB-in). *)
module Int_vec : sig
  type t

  val create : default:int -> t

  val get : t -> int -> int

  val set : t -> int -> int -> unit
end

(** Growable vector of re-armable timer deadlines, for per-route and
    per-cache-entry timeouts.

    Scheduler cancellation is lazy, so the cancel-and-reschedule idiom left
    one tombstone event in the queue per timer refresh — the 4096-node
    memory wall of DESIGN.md §15. A slot here stores the absolute expiry
    deadline plus an "armed" bit; refreshing a timer writes the deadline in
    place and the {e single} outstanding scheduler event re-arms itself on
    fire whenever the deadline has moved, so the queue carries at most one
    event per slot while expiry instants are preserved exactly. Protocols
    own the fire protocol: on fire, clear the armed bit, then either fall
    silent (deadline {!Deadline_vec.inactive}), re-arm for the remaining
    delay (deadline still in the future), or run the expiry action. *)
module Deadline_vec : sig
  type t

  val inactive : float
  (** Sentinel deadline meaning "no live timer": the expiry action must not
      run. Compares below every real simulation time. *)

  val create : unit -> t

  val get : t -> int -> float
  (** [get v i] is the stored deadline, or {!inactive}. *)

  val set : t -> int -> float -> unit

  val cancel : t -> int -> unit
  (** [cancel v i] resets slot [i] to {!inactive} without growing the
      vector; any outstanding event disarms itself at its next fire. *)

  val armed : t -> int -> bool
  (** Whether a scheduler event is outstanding for slot [i]. Independent of
      the deadline value: a cancelled slot stays armed until the outstanding
      event fires and observes {!inactive}. *)

  val set_armed : t -> int -> bool -> unit
end

(** Growable vector with a sentinel default: memoised [unit -> unit]
    thunks (timeout-expiry actions, absent = {!nop}, compared physically),
    so re-arming a timer reuses the closure built on first use; BGP's
    selected and heard AS paths (absent = [[]]). *)
module Vec : sig
  type 'a t

  val create : default:'a -> 'a t

  val get : 'a t -> int -> 'a
  (** [get v i] is the stored value, or the default. *)

  val set : 'a t -> int -> 'a -> unit
end

val nop : unit -> unit
(** The absent entry of a thunk {!Vec}. *)

(** Growable bitset over small non-negative ints: a timer slot's "armed"
    flag, a BGP MRAI gate's pending destinations. *)
module Bitset : sig
  type t

  val create : unit -> t

  val mem : t -> int -> bool

  val add : t -> int -> unit

  val remove : t -> int -> unit
  (** Never grows the set. *)
end
