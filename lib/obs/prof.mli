(** Low-overhead performance observability: scoped monotonic-clock timers
    over a static registry, plus allocation deltas.

    Scopes are created once at module-initialisation time ({!scope} is
    get-or-create by name) and entered/exited on the hot path. The whole
    subsystem sits behind one runtime flag: when {!enabled} is false every
    instrumentation point costs a single atomic load and a branch, performs
    no allocation, and never reads the clock — so instrumented and
    uninstrumented runs are byte-identical in everything they output
    (traces, artifacts, metrics) except the timing numbers themselves.

    Spans are re-entrant: a scope entered while already live (recursion, or
    a nested phase re-using its parent's scope) counts the inner call but
    only the outermost enter/exit pair measures elapsed time, so totals are
    inclusive wall time without double counting.

    The registry is process-global and the span stack is per-scope mutable
    state; concurrent spans on the same scope from multiple domains are not
    supported. Campaigns keep the flag off unless [--prof] is passed, in
    which case the report is approximate under [--jobs] > 1 (same-scope
    spans from concurrent cells merge). *)

type scope

val scope : string -> scope
(** Get or create the scope registered under [name]. Stable handle: call it
    once at module initialisation, not on the hot path. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val enter : scope -> unit
val exit : scope -> unit
(** Close the most recent {!enter} on this scope. Unbalanced exits (e.g.
    after the flag was flipped mid-span) are ignored. *)

val time : scope -> (unit -> 'a) -> 'a
(** [time s f] runs [f ()] inside a span on [s]; exception-safe. When
    profiling is disabled this is just [f ()] plus one branch. *)

val reset : unit -> unit
(** Zero every scope's accumulated statistics (registrations persist). *)

val now_ns : unit -> int64
(** The monotonic clock behind spans, exposed for ad-hoc measurements. *)

type stat = {
  st_name : string;
  st_count : int;  (** completed outermost spans *)
  st_calls : int;  (** all enters, including re-entrant ones *)
  st_total_ns : float;
  st_mean_ns : float;
  st_max_ns : float;
}

val stats : unit -> stat list
(** Scopes with at least one completed span, in registration order. *)

val pp_report : Format.formatter -> unit -> unit
(** Hot-scope table sorted by total time, descending, with each scope's
    share of the largest total. *)

(** {2 Allocation deltas} *)

type gc_delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
}

val gc_delta : (unit -> 'a) -> 'a * gc_delta
(** Allocation before/after [f ()]: minor words from [Gc.minor_words] (this
    domain, exact), the rest from [Gc.quick_stat] (all domains, as of the
    last collection). Independent of {!enabled} — the perf harness uses it
    even when spans are off. *)
