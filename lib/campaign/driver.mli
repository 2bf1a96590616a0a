(** Campaign execution: cells onto the {!Pool}, results into an {!Artifact}.

    The driver is the only component that measures wall-clock time; the cell
    rows themselves stay deterministic (see {!Cell_result}). Splitting
    {!run_tasks} from {!artifact_of} lets callers that run several sections
    of one {e family} (e.g. fig3..fig7 and overhead all project the same
    paper sweep) execute the shared cells once and emit one artifact per
    section.

    {2 Graceful degradation}

    A campaign survives individual cells misbehaving. Each task may run under
    a wall-clock budget ([?cell_budget]) — cooperative, enforced by
    {!Dessim.Scheduler.with_wall_budget}, so it interrupts any cell whose
    time is spent inside a scheduler loop (all real cells are) — and a cell
    whose attempt times out or raises is retried with the same seed up to
    [?retries] more times before being {e quarantined}: recorded in the
    artifact's [quarantined] list instead of killing the campaign.

    {2 Stop and rerun}

    A graceful stop ({!Dessim.Scheduler.request_stop}, wired to
    SIGINT/SIGTERM by the CLI) makes workers abandon in-flight cells
    cleanly — no result, no quarantine entry, no cache entry; they are
    simply missing from the returned arrays — and drain remaining tasks
    without starting them. Rerunning the same tasks on the same {!Cache}
    runs only the missing cells and merges in canonical task order, so the
    cells are byte-identical to an uninterrupted run's. *)

type backend =
  | Domains  (** in-process {!Pool} of OCaml domains — the default *)
  | Proc of { argv : string array }
      (** supervised worker processes ({!Proc_backend}); [argv] is the
          worker command, argv.(0) the executable path. Workers must
          rebuild the {e same} task decomposition: a returned cell whose
          key disagrees with the task it was asked for is quarantined,
          not trusted. If every worker slot retires (e.g. [argv] cannot
          exec), the driver degrades to running the remaining cells
          in-process rather than failing the campaign. *)

val task_key : Sections.task -> string * int * int
(** The (protocol, degree, seed) cell key of a task. *)

val attempt_once :
  ?cell_budget:float -> ?hung:bool -> Sections.task -> (Cell_result.t, string) result
(** One attempt of one task under the optional wall budget — the unit a
    {!Proc_backend.worker} executes ([wall_s] not stamped; retry policy,
    quarantine and reporting stay with the supervising driver). [?hung]
    is the CI fault hook: run the watchdog-escape loop instead of the real
    cell. A graceful-stop interruption is [Error "stop requested"]. *)

val run_tasks :
  ?jobs:int ->
  ?progress:(string -> unit) ->
  ?heartbeat:(string -> unit) ->
  ?cell_budget:float ->
  ?retries:int ->
  ?hang:string * int * int ->
  ?stop_after:int ->
  ?cache:Cache.t ->
  ?backend:backend ->
  Sections.task array ->
  Cell_result.t array * Artifact.quarantine list * Artifact.timing
(** [run_tasks ~jobs ~progress tasks] executes every task on a {!Pool} of
    [jobs] workers (default 1) and returns the surviving results {e in task
    order} — the canonical cell order — regardless of which worker finished
    which cell when, plus the quarantine entries (also in task order) and a
    timing block (worker count, total wall-clock, per-surviving-cell costs).
    Each returned cell has [wall_s] stamped. Cells that were abandoned on a
    graceful stop appear in neither list; use {!missing_count} to detect an
    incomplete run.

    [?cell_budget] (seconds; default none) is the per-attempt watchdog.
    [?retries] (default 1) is the number of {e additional} same-seed attempts
    after a failure, so an entry's [q_attempts] is at most [retries + 1].
    [?hang] is the CI fault hook: the task with that (protocol, degree, seed)
    key runs an infinite scheduler loop instead of its real cell, which only
    the watchdog can stop — supplying [hang] without [cell_budget] is
    rejected.

    [progress] (default: silent) is called per completed or quarantined cell
    and per failed attempt, from whichever domain ran it, serialized by a
    mutex — e.g. ["RIP d=3 seed=42 (17/240) 1.32s"]. It must not raise.
    [heartbeat] (default: silent, same serialization) is called after each
    completed cell with a one-line status including an ETA extrapolated from
    the mean wall time of the cells finished {e this} run — e.g.
    ["17/240 cells, 34.2 s elapsed, ETA 540 s"].

    [?cache] ({!Cache}): before scheduling, every task is looked up, and
    hits are merged at their canonical positions — not re-run, excluded
    from the ETA extrapolation (the heartbeat reports them as
    [", N cached"]). Every freshly completed cell is stored (fsync'd)
    before its progress line; quarantined cells are not stored. A
    fully-cached re-run is byte-identical to the fresh run at any [jobs].
    [?backend] selects how fresh cells execute (default {!Domains}).

    [?stop_after:k] is the deterministic test/CI stand-in for a signal:
    {!Dessim.Scheduler.request_stop} fires once [k] cells have completed
    or been quarantined in this run.

    @raise Invalid_argument if [retries < 0], [hang] without [cell_budget],
    or [stop_after < 1]. *)

val missing_count :
  total:int -> Cell_result.t array -> Artifact.quarantine list -> int
(** [missing_count ~total cells quarantined] — how many of [total] cells
    have no outcome at all, i.e. were abandoned by a graceful stop. [0] for
    a run that was allowed to finish. *)

val artifact_of :
  section:Sections.t ->
  mode:string ->
  ?timing:Artifact.timing ->
  ?quarantined:Artifact.quarantine list ->
  Convergence.Experiments.sweep ->
  Cell_result.t array ->
  Artifact.t
(** [artifact_of ~section ~mode sweep cells] assembles the artifact for
    [section] from cells produced by {!run_tasks} (or by a section-sharing
    sibling's run). *)

val run :
  ?jobs:int ->
  ?progress:(string -> unit) ->
  ?heartbeat:(string -> unit) ->
  ?cell_budget:float ->
  ?retries:int ->
  ?hang:string * int * int ->
  ?stop_after:int ->
  ?cache:Cache.t ->
  ?backend:backend ->
  mode:string ->
  Convergence.Experiments.sweep ->
  Sections.t ->
  Artifact.t
(** [run ~jobs ~mode sweep section] = {!run_tasks} on [section.tasks sweep]
    followed by {!artifact_of}, timing and quarantine included. Callers that
    need to detect an interrupted run should use {!run_tasks} +
    {!missing_count} + {!artifact_of} directly. *)
