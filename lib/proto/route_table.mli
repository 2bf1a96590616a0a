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

(** Growable vector with a sentinel default: BGP's selected and heard AS
    paths (absent = [[]]), DBF's per-neighbor caches (absent = [None]). *)
module Vec : sig
  type 'a t

  val create : default:'a -> 'a t

  val get : 'a t -> int -> 'a
  (** [get v i] is the stored value, or the default. *)

  val set : 'a t -> int -> 'a -> unit
end

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

(** Growable vector of re-armable timeouts, one slot per small int: RIP's
    route timeouts, DBF's cache-entry timeouts.

    A slot holds its absolute deadline: {!refresh} rewrites it in place, and
    the slot's one outstanding scheduler event re-arms itself on fire while
    the deadline has moved. Scheduler cancellation is lazy, so this keeps
    the queue at one event per slot where cancel-and-reschedule left a
    tombstone per refresh (the memory wall of DESIGN.md §15), and [expire]
    still runs at exactly the last refresh plus [timeout]. *)
module Deadline_vec : sig
  type t

  val create :
    timeout:float ->
    now:(unit -> float) ->
    after:(float -> (unit -> unit) -> Dessim.Scheduler.handle) ->
    expire:(int -> unit) ->
    t
  (** [create ~timeout ~now ~after ~expire] is an empty vector on the clock
      [now], scheduling through [after]. [expire i] runs when slot [i] goes
      [timeout] seconds without a {!refresh}, once per lapse. *)

  val refresh : t -> now:float -> int -> unit
  (** [refresh v ~now i] (re)starts slot [i]'s timeout from [now], the
      current time on the vector's clock, scheduling an event only when none
      is outstanding for the slot. A handler that refreshes many slots reads
      the clock once and passes it to each. *)

  val cancel : t -> int -> unit
  (** [cancel v i] stops slot [i]'s timeout without growing the vector; an
      outstanding event falls silent when it fires, and a later {!refresh}
      reuses it. *)
end
