(** Time-bucketed series.

    A series divides the half-open interval [\[start, start + width * buckets)]
    into fixed-width buckets and accumulates (count, sum) pairs per bucket.
    Used for instantaneous throughput (count per bucket / width) and
    instantaneous delay (sum / count per bucket) curves. *)

type t

val create : start:float -> width:float -> buckets:int -> t
(** [create ~start ~width ~buckets] is an empty series.
    @raise Invalid_argument if [width <= 0.] or [buckets <= 0]. *)

val start : t -> float
val width : t -> float
val buckets : t -> int

val add : t -> time:float -> float -> unit
(** [add t ~time v] accumulates [v] into the bucket covering [time]. Samples
    outside the covered interval are ignored. *)

val bucket_of_time : t -> float -> int option
(** [bucket_of_time t time] is the index of the bucket covering [time], if
    any. *)

val time_of_bucket : t -> int -> float
(** [time_of_bucket t i] is the left edge of bucket [i]. *)

val count : t -> int -> int
(** [count t i] is the number of samples in bucket [i]. *)

val sum : t -> int -> float
(** [sum t i] is the sum of sample values in bucket [i]. *)

val rate : t -> int -> float
(** [rate t i] is [count t i / width], e.g. packets per second. *)

val mean : t -> int -> float
(** [mean t i] is [sum / count] for bucket [i], or [0.] when empty. *)

val frac_count : t -> int -> float
(** [frac_count t i] is {!count} as a float, the form windowed artifact
    slices store. *)
