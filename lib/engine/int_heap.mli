(** Structure-of-arrays 4-ary min-heap keyed by [(time, seq)], with [int]
    payloads.

    Payloads are immediates (the scheduler queues pool indices instead of
    event records), so every array here is unboxed — sift moves execute no
    write barrier and the GC never scans the queue. Ordered by time first
    and, for equal times, by the sequence number, which keeps simultaneous
    events FIFO and simulations deterministic. It pops exactly the sequence of the pre-rewrite boxed
    heap kept as an oracle in [test/reference_heap.ml] (checked by the
    differential suite in [test/test_differential.ml]). *)

type t

val create : unit -> t
(** An empty heap. *)

val length : t -> int
(** Number of queued entries. *)

val is_empty : t -> bool

val add : t -> time:float -> seq:int -> int -> unit
(** [add t ~time ~seq v] inserts [v] keyed by [(time, seq)]. Amortised O(1)
    allocation-free (arrays double in place). [seq] must be unique across
    live entries for deterministic ordering. *)

type slot = { mutable slot_time : float }
(** Reusable out-parameter: an all-float record, so writing the popped time
    into it is an unboxed store instead of an allocation. *)

val slot : unit -> slot

val peek_time : t -> slot -> bool
(** [peek_time t out] writes the minimum entry's time into [out] and returns
    true, or returns false on an empty heap without touching [out]. *)

val peek_key : t -> slot -> seq:int ref -> bool
(** [peek_key t out ~seq] additionally writes the minimum entry's sequence
    number into [seq] — the full comparison key, for callers merging this
    heap with other sorted queues. *)

val pop_into : t -> slot -> seq:int ref -> int
(** [pop_into t out ~seq] removes the minimum entry, writing its time into
    [out] and its sequence number into [seq], and returns its payload.

    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
(** Drop all entries and release the backing arrays. *)
