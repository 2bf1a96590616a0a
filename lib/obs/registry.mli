(** A simulation-time metrics registry: named counters, gauges, and simple
    fixed-bucket histograms.

    Handles are fetched once ([counter]/[gauge]/[histogram] get-or-create by
    name) and updated through direct mutation, so the hot path never touches
    the name table. Reading happens through {!snapshot}/{!lookup}. *)

type t

val create : unit -> t

(** {2 Counters} — monotonically increasing integers. *)

type counter

val counter : t -> string -> counter
(** Get or create. @raise Invalid_argument if [name] exists as another kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {2 Gauges} — last-write-wins floats, with a high-water helper. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the maximum of all values ever set (high-water mark). *)

val gauge_value : gauge -> float

(** {2 Histograms} — counts per fixed bucket, plus sum/min/max. *)

type histogram

val default_bounds : float array
(** Log-spaced 1 ms .. 100 s, suited to packet delays in seconds. *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are upper bucket edges (sorted internally); values above the
    last edge land in an overflow bucket. *)

val observe : histogram -> float -> unit
val observations : histogram -> int
val mean : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] is an upper bound for the [q]-quantile (the edge of the
    bucket containing it; the observed max for the overflow bucket). *)

(** {2 Reading} *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      n : int;
      sum : float;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

val names : t -> string list
(** In registration order. *)

val snapshot : t -> (string * value) list

val lookup : t -> string -> value option

val pp : t Fmt.t
