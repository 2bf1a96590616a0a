(** CSV export of per-flow results, for plotting with gnuplot / pandas.

    {!run_csv} returns the CSV as a string (header row included, one record
    per line, numeric cells unquoted); {!to_file} writes it to disk. Fields
    never contain commas or quotes, so no escaping is needed — kept
    deliberately simple. Sweep results are exported as campaign artifacts
    ([BENCH_<section>.json]). *)

val run_csv : Metrics.multi list -> string
(** One row per flow of each run: protocol, degree, seed, endpoints, packet
    fates, loop counters, the run's control-plane totals, convergence
    delays. *)

val to_file : string -> path:string -> unit
(** [to_file csv ~path] writes the string to [path] (truncating). *)
