(** Versioned, machine-readable campaign artifacts ([BENCH_<section>.json]).

    An artifact is the single source of truth for one campaign section: the
    sweep parameters, one row per cell in cell-key order, per-(protocol,
    degree) aggregates (mean and standard deviation of every scalar metric,
    plus averaged time series where the section has them), and a [timing]
    block (worker count, total and per-cell wall-clock).

    {2 Schema v4}

    {v
    { "schema_version": 4,
      "kind": "rcsim-campaign",
      "section": "fig3",
      "git_sha": "<short sha or "unknown">",
      "params": { "mode": "full", "rows": 7, "cols": 7,
                  "degrees": [3,4,5,6,7,8], "runs": 10, "seed": 1,
                  "rate_pps": 200.0, "warmup": 390.0, "sim_end": 800.0 },
      "cells": [ { "protocol": "RIP", "degree": 3, "seed": 1,
                   "sent": ..., "drops_no_route": ..., ...,
                   "extras": {...}?, "axes": {...}?, "series": {...}? }, ... ],
      "quarantined": [ { "protocol": "RIP", "degree": 3, "seed": 7,
                         "error": "wall budget exceeded (2.0 s)",
                         "attempts": 2 }, ... ],
      "aggregates": [ { "protocol": "RIP", "degree": 3, "runs": 10,
                        "axes": {...}?,
                        "metrics": { "drops_no_route":
                                       { "mean": ..., "stddev": ... }, ... },
                        "series": {...}? }, ... ],
      "timing": { "jobs": 8, "wall_s": ...,
                  "cells": [ { "protocol": "RIP", "degree": 3, "seed": 1,
                               "wall_s": ...,
                               "perf": { "ns_per_event": ..., ... }? },
                             ... ] }? }
    v}

    Version history: v1 had no [quarantined] list ({!of_json} and {!validate}
    still accept it, reading an empty quarantine). v2 requires it — cells the
    {!Driver} gave up on (watchdog timeout or a raised exception, after
    bounded same-seed retries) are recorded there instead of aborting the
    whole campaign, and aggregates are computed from the surviving cells
    only. A key may not appear both as a cell and as a quarantine entry.
    v3 adds the optional per-cell ["perf"] object inside timing
    cells — machine-speed measurements from the perf section (ns/event,
    events/sec, GC promotion), kept in [timing] because they are as
    non-deterministic as wall time. v4 (current) adds the optional
    self-describing ["axes"] object on cells and aggregates: sections whose
    grid has more dimensions than (protocol, degree) — e.g. the resilience
    section's schedule x FRR x mesh-degree cross — name each coordinate
    explicitly, so readers need not decode the packed [degree] axis code.
    The writer stamps the lowest version whose features the file actually
    uses (an axes-free grid still writes byte-identical v3), so
    regenerating a pre-v4 artifact diffs clean across the version bump.

    Determinism contract: everything except [timing] is a pure function of
    (code, section, params) — cells are merged in cell-key order and
    aggregates are computed in that same order, so the {!canonical_string}
    (the artifact with [timing] removed) is byte-identical whatever [--jobs]
    was. [timing] is honest measurement and varies run to run; {!Diff}
    ignores it. *)

type params = {
  mode : string;  (** ["quick"], ["standard"] or ["full"] — which sweep
                      preset produced the artifact *)
  rows : int;
  cols : int;
  degrees : int list;
  runs : int;  (** seeds per (protocol, degree) cell *)
  seed : int;  (** base seed; cell [i] of a group uses [seed + i] *)
  rate_pps : float;
  warmup : float;
  sim_end : float;
}

type stat = { mean : float; stddev : float }
(** Population standard deviation, as {!Dessim.Stat.stddev}. *)

type aggregate = {
  a_protocol : string;
  a_degree : int;
  a_runs : int;
  a_axes : (string * string) list;
      (** the group's {!Cell_result.t.axes} annotation (cells sharing an
          axis code share their axes); empty on plain grids and pre-v4
          artifacts *)
  a_metrics : (string * stat) list;  (** one entry per scalar metric, in
                                         {!Cell_result.metrics} order *)
  a_series : (string * Cell_result.series) list;
      (** per-bucket (count, sum) averaged over the group's seeds:
          accumulated, then scaled by [1/runs] *)
}

type cell_timing = {
  ct_protocol : string;
  ct_degree : int;
  ct_seed : int;
  ct_wall_s : float;
  ct_perf : (string * float) list;
      (** the cell's {!Cell_result.t.perf} measurements; empty for sections
          that do not measure machine speed *)
}

type exec = {
  x_backend : string;  (** ["domains"] or ["proc"] *)
  x_cache_hits : int;  (** cells satisfied from the {!Cache} *)
  x_cache_misses : int;  (** cache lookups that had to run the cell *)
  x_spawns : int;  (** worker processes launched (proc backend; else 0) *)
  x_restarts : int;  (** supervised worker respawns (proc backend; else 0) *)
  x_worker_cells : int list;
      (** cells completed per worker slot, slot order; empty for domains *)
}
(** How a campaign's cells were executed. Like the rest of [timing], this
    is honest non-determinism — cache traffic and worker churn vary run to
    run — so it lives inside the strippable timing block and never affects
    {!canonical_string}. Serialized as an optional ["exec"] key: artifacts
    from plain in-process runs keep their exact pre-existing byte layout. *)

type timing = {
  t_jobs : int;
  t_wall_s : float;
  t_exec : exec option;  (** absent for plain in-process, uncached runs *)
  t_cells : cell_timing list;
}

type quarantine = {
  q_protocol : string;
  q_degree : int;
  q_seed : int;
  q_error : string;  (** why the cell's last attempt failed *)
  q_attempts : int;  (** total attempts made, including retries; [>= 1] *)
}
(** A cell the driver abandoned: every attempt either exceeded the wall-clock
    budget or raised. Quarantine is honest failure bookkeeping like [timing]
    ([q_error]/[q_attempts] can vary with machine load), so byte-determinism
    of {!canonical_string} is only guaranteed for artifacts whose quarantine
    is empty — {!Diff} accordingly compares quarantine entries by key only. *)

type t = {
  section : string;
  git_sha : string;
  params : params;
  cells : Cell_result.t list;  (** in canonical (task) order: engine-major,
                                    then degree, then seed *)
  quarantined : quarantine list;  (** in canonical task order, too *)
  aggregates : aggregate list;  (** one per (protocol, degree), in first-cell
                                    order, over surviving cells only *)
  timing : timing option;
  include_series : bool;  (** whether cell rows serialize their series *)
}

val quarantine_key : quarantine -> string * int * int
(** The (protocol, degree, seed) cell key the entry stands in for. *)

val quarantine_to_json : quarantine -> Obs.Json.t
(** One entry of the artifact's [quarantined] list. *)

val version : int
(** The newest schema version this module understands: [4]. The writer
    stamps [4] only on artifacts that use a v4 feature (an [axes]
    annotation); axes-free artifacts keep writing [3]. *)

val min_version : int
(** The oldest schema version {!of_json} and {!validate} accept: [1]. *)

val params_of_sweep : mode:string -> Convergence.Experiments.sweep -> params

val git_sha : unit -> string
(** The repository's short HEAD sha, or ["unknown"] outside a git checkout. *)

val aggregate : Cell_result.t list -> aggregate list
(** [aggregate cells] groups cells by (protocol, degree) in first-appearance
    order and computes mean/stddev of every scalar metric and the averaged
    series per group. Cells of one group must share the metric and series
    name sets. *)

val build :
  section:string ->
  ?git_sha:string ->
  ?timing:timing ->
  ?quarantined:quarantine list ->
  include_series:bool ->
  params ->
  Cell_result.t list ->
  t
(** [build ~section params cells] computes the aggregates and stamps the
    schema metadata. [cells] must already be in canonical cell order — the
    section's task order (engine-major, then degree, then seed), which is
    what {!Driver.run} produces; the order determines both the artifact's
    row order and the aggregates' (hence the tables') protocol column
    order. [?git_sha] defaults to {!git_sha}[ ()]; [?quarantined] (default
    none) records the cells the driver gave up on. *)

val cell_timing : t -> Cell_result.t -> cell_timing option
(** The timing row of a cell, matched by (protocol, degree, seed); [None]
    when the artifact has no timing block or no such row. *)

val overall_perf : t -> (float * float) option
(** Overall measured engine throughput as [(events, seconds)]: scheduler
    events ([sched_events] extras) and the seconds they took at each cell's
    measured [events_per_s], summed over the cells that carry both as
    positive numbers. [None] when no cell does. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Strict parse: fails on a missing field, a type mismatch, or an
    unsupported schema version. *)

val validate : Obs.Json.t -> string list
(** [validate j] is every schema violation found (empty = valid): required
    keys, types, schema version ([{!min_version}..{!version}]), the
    quarantine block (well-formed entries, no duplicate keys, no key that is
    also a completed cell, required from v2 on), and cells/aggregates
    consistency (each aggregate's [runs] equals its group's cell count).
    Unlike {!of_json} it keeps going after the first problem, for useful CI
    output. *)

val to_string : t -> string
(** Compact one-line JSON of the full artifact, including [timing]. *)

val canonical_string : t -> string
(** {!to_string} with [timing] removed — the byte-comparable form used by
    the determinism tests and the [--jobs]-invariance guarantee. *)

val write : path:string -> t -> unit
(** Write {!to_string} plus a trailing newline to [path], atomically
    ({!Rcutil.Atomic_file}): the file at [path] is never observable in a
    torn state, whatever kills the process mid-write. *)

val read : path:string -> (t, string) result
(** Read and parse an artifact file; [Error] names the file on I/O, JSON or
    schema failures. *)
