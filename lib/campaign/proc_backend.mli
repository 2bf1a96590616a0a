(** Supervised multi-process campaign execution.

    The in-process {!Pool} shares one heap and one fate with its cells: a
    segfault in C stubs, an OOM kill or a genuinely wedged cell (stuck
    outside the cooperative scheduler poll, where [cell_budget] cannot
    reach) takes the whole campaign down. This backend runs cells in [jobs]
    {e separate} [rcsim] worker processes instead, each fed one cell index
    at a time over a pipe, so the blast radius of any cell is one worker —
    which the supervisor kills and respawns, re-queueing or quarantining
    the cell.

    {2 Wire protocol}

    Parent → worker (worker stdin): one ASCII cell index per line. Closing
    the pipe is the shutdown signal. Worker → parent (worker stdout): one
    {!Frame.frame}d JSON record per line — [{"type":"ready"}] once after
    startup, then per cell [{"type":"start","i":N}] followed by either
    [{"type":"cell","i":N,"wall_s":W,"events":E,"perf":{...},"cell":{...}}]
    (the {!Cell_result.envelope_fields} a cache entry carries too: the
    transient fields ride alongside the row, which never serializes them)
    or [{"type":"failed","i":N,"error":"..."}] for an in-worker
    failure that did not kill the process. Worker stderr carries heartbeat
    bytes, emitted from a SIGALRM interval timer armed only while a cell
    is running: OCaml delivers signals at safe points, so a flowing
    heartbeat certifies the worker's main loop is actually advancing, not
    just that the process exists.

    {2 Supervision}

    Each dispatched cell runs under an adaptive deadline,
    [max min_deadline (srtt + 4*rttvar)] doubled per retry attempt
    (exponential backoff), where srtt/rttvar are Jacobson estimates over
    clean first-attempt cell times — retried attempts never feed the
    estimator (Karn's rule; see lib/fault/rtx.ml for the in-simulator
    twin of this logic). A worker that blows its deadline, goes
    heartbeat-silent mid-cell for [hb_timeout], crashes, or is killed by
    the OS is SIGKILLed (if still alive), reaped and respawned; its cell
    is re-queued until the attempt budget ([retries + 1]) is spent, then
    reported quarantined. A slot whose worker dies 3 consecutive times
    before ever becoming ready (e.g. the exec path is wrong) is retired;
    when every slot is retired the remaining indices are returned to the
    caller, which degrades to in-process execution rather than failing
    the campaign. *)

type outcome =
  | Cell of { index : int; cell : Cell_result.t }
      (** completed; [wall_s], [events] and [perf] restored from the wire *)
  | Quarantined of { index : int; error : string; attempts : int }
      (** failed every attempt; [error] is the last failure *)

type stats = {
  p_spawns : int;  (** worker processes launched, including respawns *)
  p_restarts : int;  (** respawns after a worker death or supervised kill *)
  p_slot_cells : int list;  (** completed cells per slot, slot order *)
}

val run :
  jobs:int ->
  argv:string array ->
  indices:int array ->
  retries:int ->
  ?min_deadline:float ->
  ?hb_timeout:float ->
  progress:(string -> unit) ->
  on_outcome:(outcome -> unit) ->
  unit ->
  stats * int list
(** [run ~jobs ~argv ~indices ~retries ~progress ~on_outcome ()] supervises
    [jobs] worker slots, each exec'ing [argv] (argv.(0) is the executable
    path; the command must end up in {!worker}), and drives every index in
    [indices] to an [on_outcome] call — except indices abandoned because a
    graceful stop was requested ({!Dessim.Scheduler.stop_requested}) or
    every slot retired; those are returned as the leftover list (original
    dispatch order). [on_outcome] and [progress] are called from the
    supervisor loop (single-threaded, no locking needed).

    [min_deadline] (default 10 s) floors the adaptive per-cell deadline —
    also the deadline used before any sample exists. [hb_timeout] (default
    10 s) is the allowed heartbeat silence while a cell is in flight. *)

val worker :
  run_cell:(int -> (float * Cell_result.t, string) result) -> unit -> 'a
(** [worker ~run_cell ()] is the child side: speaks the protocol on
    stdin/stdout/stderr and calls [run_cell i] per received index —
    returning [(wall_s, cell)] with the cell's transient [events]/[perf]
    fields populated, or [Error] for a failure the worker survived.
    Ignores SIGINT (the interactive signal belongs to the supervisor,
    which shuts workers down by closing their stdin). Never returns: exits
    0 on stdin EOF. *)
