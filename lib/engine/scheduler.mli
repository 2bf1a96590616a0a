(** Discrete-event scheduler.

    The scheduler maintains a simulation clock and a queue of timed callbacks.
    Events scheduled for the same instant fire in the order they were
    scheduled, which makes runs deterministic for a fixed seed. *)

type t
(** A scheduler with its own clock, starting at time [0.0]. *)

type handle [@@immediate]
(** A cancellation handle for a scheduled event: an immediate value naming
    the event's pool cell and that cell's generation, so holding, storing
    or dropping one allocates nothing. *)

val create : unit -> t
(** [create ()] is a fresh scheduler at time [0.0] with no pending events. *)

val now : t -> float
(** [now t] is the current simulation time in seconds. The clock is stored
    unboxed and the repository builds without [-opaque], so a call from
    another module inlines to a plain load and allocates nothing. *)

val schedule : t -> at:float -> (unit -> unit) -> handle
(** [schedule t ~at f] arranges for [f ()] to run at absolute time [at].

    @raise Invalid_argument if [at] is earlier than [now t]. *)

val after : t -> delay:float -> (unit -> unit) -> handle
(** [after t ~delay f] is [schedule t ~at:(now t +. delay) f].

    @raise Invalid_argument if [delay] is negative. *)

val fire_at : t -> at:float -> (unit -> unit) -> unit
(** [fire_at t ~at f] is {!schedule} without the handle, for events that
    are never cancelled. Neither allocates a cell in steady state (cells
    are recycled) nor a handle (it is an immediate), so a self-rescheduling
    event that reuses its closure at a fixed period (a traffic pacer, a
    periodic task) is allocation-free.

    @raise Invalid_argument if [at] is earlier than [now t]. *)

val fire_after : t -> delay:float -> (unit -> unit) -> unit
(** [fire_after t ~delay f] is [fire_at t ~at:(now t +. delay) f].

    @raise Invalid_argument if [delay] is negative. *)

(** {2 Tagged events}

    The closure fallback above allocates one closure per distinct event. Hot
    event categories (a protocol timer) instead register a handler {e once}
    and schedule (tag, payload) pairs: a steady-state event then allocates
    no closure and no handle. A handler that closes over its own state
    (a link) takes [()] as its payload, and its events then store no
    pointer at all. Tags are typed: a ['a tag] only accepts ['a]
    payloads. *)

type 'a tag
(** A handler registered with {!register}, identifying both the code to run
    and the payload type it expects. *)

val register : t -> ('a -> unit) -> 'a tag
(** [register t f] adds [f] to [t]'s dispatch table and returns its tag.
    Registration is cheap but not recycled: register per long-lived object
    (a link, a router), not per event. *)

val schedule_tag_h : t -> at:float -> 'a tag -> 'a -> handle
(** [schedule_tag_h t ~at tag x] arranges for [tag]'s handler to receive [x]
    at absolute time [at], and returns the event's cancellation handle.

    @raise Invalid_argument if [at] is earlier than [now t]. *)

val after_tag_h : t -> delay:float -> 'a tag -> 'a -> handle
(** [after_tag_h t ~delay tag x] arranges for [tag]'s handler to receive [x]
    at [now t +. delay], and returns the event's cancellation handle.

    @raise Invalid_argument if [delay] is negative. *)

val cancel : t -> handle -> unit
(** [cancel t h] prevents the event behind [h], scheduled on [t], from
    firing. Cancelling an event that already fired (or was already
    cancelled) is a no-op, even after its pool cell has been recycled for
    another event. A handle stays exact until its cell has been reused
    2{^31} times. *)

val pending : t -> int
(** [pending t] is the number of queued events, including cancelled ones that
    have not yet been discarded. *)

val step : t -> bool
(** [step t] fires the next event, advancing the clock to its timestamp.
    Returns [false] when the queue is empty. Cancelled events are skipped
    (still consuming a [step]) without invoking their callback. *)

val run : ?until:float -> t -> unit
(** [run t] fires events until the queue is empty. With [~until], stops before
    any event later than [until] and leaves the clock at [until] (or at the
    last fired event if the queue emptied first, whichever is later never
    exceeding [until]).

    If the calling domain is inside {!with_wall_budget} and the budget is
    exhausted, [run] raises {!Wall_timeout} (checked every 1024 events). *)

exception Wall_timeout
(** Raised by {!run} when the enclosing {!with_wall_budget} deadline passes. *)

exception Stop_requested
(** Raised by {!run} (at the same 1024-event poll as the wall budget) once
    {!request_stop} has been called. *)

val request_stop : unit -> unit
(** [request_stop ()] asks every {!run} loop in the process — on any domain —
    to stop at its next poll by raising {!Stop_requested}. Idempotent, and
    async-signal-safe: it only stores into an atomic, so it is the intended
    body of a SIGINT/SIGTERM handler. Code that is about to start a new
    simulation can consult {!stop_requested} to avoid starting at all. *)

val stop_requested : unit -> bool
(** Whether {!request_stop} has been called (and not yet cleared). *)

val clear_stop : unit -> unit
(** [clear_stop ()] re-arms the process for new runs — called by code that
    continues work in the same process after a graceful stop. *)

val with_wall_budget : float -> (unit -> 'a) -> 'a
(** [with_wall_budget seconds fn] runs [fn ()] with a wall-clock deadline of
    [seconds] from now. Any {!run} loop executing on the same domain inside
    [fn] raises {!Wall_timeout} once the deadline passes; code between events
    is not interrupted (the watchdog is cooperative, not preemptive). Budgets
    nest: the innermost one is in effect, and the previous budget is restored
    on exit — including on exception.

    @raise Invalid_argument if [seconds <= 0]. *)

val events_processed : t -> int
(** [events_processed t] counts events fired since creation (cancelled events
    excluded). *)

val events_scheduled : t -> int
(** [events_scheduled t] counts every {!schedule}/{!after} call since
    creation, whether or not the event later fired. *)

val events_skipped : t -> int
(** [events_skipped t] counts cancelled events that were popped and discarded
    without firing — the queue-churn cost of cancellation. *)

val heap_pushes : t -> int
(** [heap_pushes t] counts the events pushed to the heap rather than
    appended to a timing lane: every {!schedule} and {!schedule_tag_h},
    and each delayed event whose delay has no lane. Delays that recur
    often enough ride lanes, which cost O(1) per push and pop where the
    heap costs a sift, so this is the share of the queue work that pays
    for sifts. Like the other counts it is deterministic for a
    deterministic simulation. *)

val max_queue_depth : t -> int
(** [max_queue_depth t] is the high-water mark of the event queue: the largest
    number of simultaneously pending events (cancelled-but-undiscarded
    included) observed since creation. *)

(** {2 Test seam} *)

type recorder = {
  on_add : float -> int -> unit;  (** called as [(time, seq)] on every push *)
  on_pop : float -> int -> bool -> unit;
      (** called as [(time, seq, fired)] on every pop; [fired] is false for
          a cancelled event being discarded *)
}
(** Observation hooks for the differential test harness: recording the exact
    (time, seq) stream a real scenario feeds the queue lets tests replay it
    through a reference heap and compare pop orders. Costs one [option] check
    per push/pop when unset. *)

val with_default_recorder : recorder -> (unit -> 'a) -> 'a
(** [with_default_recorder r fn] makes every scheduler {!create}d by the
    current domain during [fn ()] start with recorder [r] — the seam for
    observing a scheduler whose creation site a test cannot reach (the
    simulation runner builds its own). Nests; restored on exit. *)
