(** The typed outcome of one campaign cell.

    A cell is the unit of parallelism in a campaign: one seeded simulation of
    one (protocol, degree) configuration. Its result carries everything the
    paper reports per run — packet fates broken down by drop cause, loop
    escapees, convergence delays, control-plane volume — plus the cell key
    (protocol, degree, seed) that makes merging deterministic, optional
    section-specific scalar metrics ([extras]), optional windowed time
    series, and the cell's wall-clock cost.

    Two serialization rules keep campaign artifacts reproducible:
    - rows are written in cell-key order, so the artifact is byte-identical
      whatever the worker count or completion order;
    - [wall_s] is {e never} written into the row itself (it is inherently
      non-deterministic); the campaign driver stores it in the artifact's
      separate [timing] section, which canonicalization strips. *)

type series = {
  s_start : float;  (** left edge of the first bucket, in {e normalized}
                        seconds (0 = end of warm-up) *)
  s_width : float;  (** bucket width in seconds *)
  s_counts : float array;  (** per-bucket sample counts (fractional once
                               averaged over seeds) *)
  s_sums : float array;  (** per-bucket sample sums *)
}
(** A windowed slice of a {!Dessim.Series.t}, kept as raw (count, sum) pairs
    so that merging cells can average them exactly: sum the seeds' pairs
    bucket by bucket, then divide by [runs]. *)

type t = {
  protocol : string;
  degree : int;
  seed : int;
  sent : int;
  delivered : int;
  drops_no_route : int;
  drops_ttl : int;
  drops_queue : int;
  drops_link : int;
  looped_delivered : int;
  looped_dropped : int;
  ctrl_messages : int;
  ctrl_bytes : int;
  fwd_convergence : float;  (** seconds; paper Fig. 6a *)
  routing_convergence : float;  (** seconds; paper Fig. 6b *)
  transient_paths : int;
  extras : (string * float) list;
      (** section-specific scalars (e.g. [delivery_ratio], [completion_s]),
          in a fixed per-section order *)
  axes : (string * string) list;
      (** self-describing grid coordinates (schema v4): sections whose grid
          has more dimensions than (protocol, degree) name each extra axis
          here — e.g. [("schedule", "flap"); ("frr", "on");
          ("mesh_degree", "4")] — so readers need not decode the packed
          [degree] axis code. Empty for plain (protocol, degree) grids and
          for rows read from pre-v4 artifacts. *)
  series : (string * series) list;
      (** windowed time series (e.g. ["throughput"], ["delay"]); serialized
          only for sections that render them *)
  wall_s : float;  (** wall-clock cost of the cell; excluded from the row's
                       serialization (see above) *)
  perf : (string * float) list;
      (** machine-speed measurements (ns/event, events/sec, GC promotion …)
          produced by the perf section; non-deterministic like [wall_s], so
          excluded from the row's serialization — the driver copies it into
          the artifact's strippable [timing] section *)
  events : int;
      (** scheduler events the cell's simulation fired; transient like
          [wall_s] (0 after deserialization) — feeds the driver's live
          events/sec heartbeat *)
}

val of_multi : ?extras:(string * float) list -> ?axes:(string * string) list ->
  ?series:(string * series) list -> Convergence.Metrics.multi -> t
(** [of_multi m] lifts a run outcome into a cell row: packet counters are
    summed over the flows, [fwd_convergence] is the per-flow mean, and
    [routing_convergence] spans all failures (as {!Convergence.Metrics}
    defines it). A one-flow outcome (the paper's scenario) carries its
    flow's values unchanged. [wall_s] is [0.] until the driver stamps it. *)

val metrics : t -> (string * float) list
(** [metrics t] is every scalar of the row as an ordered [(name, value)]
    list: the standard fields (in declaration order, ints as floats) followed
    by [extras]. This is the list the aggregator takes means and standard
    deviations over, and the namespace table renderers select from. *)

val key : t -> string * int * int
(** [key t] is [(protocol, degree, seed)] — the unique cell identifier
    within a campaign. *)

val windowed :
  warmup:float -> lo:float -> hi:float -> Dessim.Series.t -> series
(** [windowed ~warmup ~lo ~hi s] slices the buckets of [s] whose normalized
    left edge [t - warmup] lies in [[lo, hi]] — the inclusive window the
    time-series figures print. *)

val to_json : include_series:bool -> t -> Obs.Json.t
(** One JSON object per row. [include_series] controls whether the [series]
    field is written (sections that only render scalar tables omit it to keep
    artifacts small). [wall_s] is never written. Non-finite floats are
    written as [null] and read back as [nan]. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; [wall_s] is [0.]. *)

val envelope_fields : t -> (string * Obs.Json.t) list
(** A finished cell as it travels beyond its process: [wall_s], [events],
    [perf] and the {!to_json} row with its series, as fields for the
    enclosing object — a {!Cache} entry or a {!Proc_backend} [cell]
    record. *)

val of_envelope : Obs.Json.t -> (t, string) result
(** Inverse of {!envelope_fields}, read from the enclosing object: the row
    with its transient fields restored. *)

val fnum : float -> Obs.Json.t
(** A float as JSON, [null] when non-finite; {!float_of_json} reads [null]
    back as [nan]. *)

val float_of_json : Obs.Json.t -> float option

val series_to_json : series -> Obs.Json.t
(** The [{start, width, counts, sums}] object used inside both cell rows and
    aggregates. *)

val series_of_json : Obs.Json.t -> series option
(** Inverse of {!series_to_json}; [None] on any malformation. *)
