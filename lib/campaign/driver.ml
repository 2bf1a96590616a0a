(* A cell that hangs or crashes must not take the campaign down with it: the
   whole point of a 240-cell overnight sweep is that cell 173 misbehaving
   still leaves 239 rows of data. Each task therefore runs under an optional
   wall-clock budget (cooperative: Dessim.Scheduler.run checks the deadline
   between events, which covers every real cell since cells are simulator
   runs) and a bounded number of same-seed retries — a timeout on a loaded
   machine is the one failure a retry can genuinely cure. What still fails
   is quarantined into the artifact rather than aborted on.

   The same cooperative poll carries the graceful-stop flag
   (Dessim.Scheduler.request_stop, set by the CLI's SIGINT/SIGTERM handler):
   a stopped campaign abandons in-flight cells cleanly (no quarantine entry,
   no cache entry — they are simply "missing") and stops starting new ones;
   every cell that did finish is already in the cache, so rerunning the
   same campaign computes only the rest. *)

type outcome =
  | Done of Cell_result.t
  | Failed of { error : string; attempts : int }
  | Stopped  (** abandoned because a graceful stop was requested; the cell is
                 neither a result nor a quarantine — just missing *)

(* The CI hook that proves the watchdog works: a scheduler that reschedules
   itself forever, exactly the shape of a runaway simulation. Only
   interruptible by the wall budget, so requiring [cell_budget] alongside
   [hang] (checked in run_tasks) keeps a mistyped flag from hanging CI. *)
let hang_forever () =
  let s = Dessim.Scheduler.create () in
  let rec tick () = ignore (Dessim.Scheduler.after s ~delay:1.0 tick) in
  tick ();
  Dessim.Scheduler.run s;
  assert false

let attempt_task ?cell_budget ~hung (t : Sections.task) =
  let body () = if hung then hang_forever () else t.Sections.t_run () in
  let guarded () =
    match cell_budget with
    | None -> body ()
    | Some b -> Dessim.Scheduler.with_wall_budget b body
  in
  match guarded () with
  | cell -> Ok cell
  | exception Dessim.Scheduler.Stop_requested -> Error `Stop
  | exception Dessim.Scheduler.Wall_timeout ->
    Error
      (`Fail
        (Printf.sprintf "wall budget exceeded (%.1f s)"
           (Option.value cell_budget ~default:0.)))
  | exception exn -> Error (`Fail (Printexc.to_string exn))

let task_key (t : Sections.task) =
  (t.Sections.t_protocol, t.Sections.t_degree, t.Sections.t_seed)

let attempt_once ?cell_budget ?(hung = false) (t : Sections.task) =
  match attempt_task ?cell_budget ~hung t with
  | Ok c -> Ok c
  | Error `Stop -> Error "stop requested"
  | Error (`Fail e) -> Error e

type backend = Domains | Proc of { argv : string array }

let run_tasks ?(jobs = 1) ?(progress = fun _ -> ()) ?(heartbeat = fun _ -> ())
    ?cell_budget ?(retries = 1) ?hang ?stop_after ?cache ?(backend = Domains)
    (tasks : Sections.task array) =
  if retries < 0 then invalid_arg "Driver.run_tasks: retries must be >= 0";
  (match (hang, cell_budget) with
  | Some _, None ->
    invalid_arg "Driver.run_tasks: hang requires a cell_budget to escape"
  | _ -> ());
  (match stop_after with
  | Some k when k < 1 -> invalid_arg "Driver.run_tasks: stop_after must be >= 1"
  | _ -> ());
  let n = Array.length tasks in
  (* Cache consultation, before any scheduling: hits are not re-run; they
     re-enter the merge at their canonical positions and are not counted by
     the heartbeat's ETA extrapolation. *)
  let pre = Hashtbl.create 64 in
  (match cache with
  | None -> ()
  | Some c ->
    Array.iter
      (fun t ->
        let ((p, d, s) as key) = task_key t in
        match Cache.find c ~protocol:p ~degree:d ~seed:s with
        | Some cell -> Hashtbl.replace pre key cell
        | None -> ())
      tasks;
    let hits, misses = Cache.stats c in
    progress
      (Printf.sprintf "cache: %d of %d cells from cache, %d to run" hits
         (hits + misses) misses));
  let base_done = Hashtbl.length pre in
  let done_count = ref base_done in
  (* Scheduler events fired by freshly-run cells: the numerator of the
     heartbeat's aggregate events/sec (cached cells did their events in a
     previous process, so they count for neither side of the rate). *)
  let events_done = ref 0 in
  let progress_mutex = Mutex.create () in
  let t0 = Unix.gettimeofday () in
  let rate_string v =
    if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
    else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
    else Printf.sprintf "%.1f" v
  in
  (* Everything that happens "when a cell finishes" is serialized here: the
     progress line, the heartbeat, and the stop-after test hook. A finished
     cell's cache entry is published before its report, so it is durable
     before the count moves. *)
  let report ?(events = 0) line =
    Mutex.protect progress_mutex (fun () ->
        events_done := !events_done + events;
        incr done_count;
        progress line;
        let done_here = !done_count - base_done in
        let remaining = n - !done_count in
        if done_here > 0 && remaining > 0 then begin
          let elapsed = Unix.gettimeofday () -. t0 in
          let throughput =
            if elapsed > 0. then
              Printf.sprintf ", %s cells/s, %s events/s"
                (rate_string (float_of_int done_here /. elapsed))
                (rate_string (float_of_int !events_done /. elapsed))
            else ""
          in
          let cached =
            if base_done > 0 then Printf.sprintf ", %d cached" base_done
            else ""
          in
          heartbeat
            (Printf.sprintf "%d/%d cells, %.1f s elapsed, ETA %.0f s%s%s"
               !done_count n elapsed
               (elapsed /. float_of_int done_here *. float_of_int remaining)
               throughput cached)
        end;
        match stop_after with
        | Some k when done_here >= k -> Dessim.Scheduler.request_stop ()
        | _ -> ())
  in
  let timed_task (t : Sections.task) () =
    if Dessim.Scheduler.stop_requested () then Stopped
    else begin
      let hung = hang = Some (task_key t) in
      let rec go attempt_no =
        let a0 = Unix.gettimeofday () in
        let result = attempt_task ?cell_budget ~hung t in
        let wall = Unix.gettimeofday () -. a0 in
        match result with
        | Ok cell ->
          let cell = { cell with Cell_result.wall_s = wall } in
          Option.iter (fun c -> Cache.store c cell) cache;
          report ~events:cell.Cell_result.events
            (Printf.sprintf "%-6s d=%d seed=%d (%d/%d) %.2fs"
               t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed
               !done_count n wall);
          Done cell
        | Error `Stop ->
          Mutex.protect progress_mutex (fun () ->
              progress
                (Printf.sprintf "%-6s d=%d seed=%d abandoned (stop requested)"
                   t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed));
          Stopped
        | Error (`Fail e) when attempt_no <= retries ->
          Mutex.protect progress_mutex (fun () ->
              progress
                (Printf.sprintf "%-6s d=%d seed=%d attempt %d failed (%s), retrying"
                   t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed
                   attempt_no e));
          go (attempt_no + 1)
        | Error (`Fail e) ->
          report
            (Printf.sprintf "%-6s d=%d seed=%d (%d/%d) QUARANTINED after %d \
                             attempts: %s"
               t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed
               !done_count n attempt_no e);
          Failed { error = e; attempts = attempt_no }
      in
      go 1
    end
  in
  let todo =
    Array.of_list
      (List.filter
         (fun i -> not (Hashtbl.mem pre (task_key tasks.(i))))
         (List.init n Fun.id))
  in
  let exec_stats = ref None in
  let sub_outcomes =
    match backend with
    | Domains -> Pool.run ~jobs (Array.map (fun i -> timed_task tasks.(i)) todo)
    | Proc { argv } ->
      let results = Hashtbl.create 64 in
      let on_outcome = function
        | Proc_backend.Cell { index; cell } ->
          let t = tasks.(index) in
          if Cell_result.key cell <> task_key t then begin
            (* The worker rebuilt a different sweep than ours (version skew,
               wrong flags): its data is untrustworthy for this campaign. *)
            let error = "worker returned a cell for the wrong key" in
            report
              (Printf.sprintf "%-6s d=%d seed=%d (%d/%d) QUARANTINED: %s"
                 t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed
                 !done_count n error);
            Hashtbl.replace results index (Failed { error; attempts = 1 })
          end
          else begin
            Option.iter (fun c -> Cache.store c cell) cache;
            report ~events:cell.Cell_result.events
              (Printf.sprintf "%-6s d=%d seed=%d (%d/%d) %.2fs"
                 t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed
                 !done_count n cell.Cell_result.wall_s);
            Hashtbl.replace results index (Done cell)
          end
        | Proc_backend.Quarantined { index; error; attempts } ->
          let t = tasks.(index) in
          report
            (Printf.sprintf
               "%-6s d=%d seed=%d (%d/%d) QUARANTINED after %d attempts: %s"
               t.Sections.t_protocol t.Sections.t_degree t.Sections.t_seed
               !done_count n attempts error);
          Hashtbl.replace results index (Failed { error; attempts })
      in
      (* The supervisor's no-sample deadline floor: twice the cooperative
         cell budget when one is set (the worker's own watchdog fires first
         for hung-but-responsive cells; the process deadline is the backstop
         for wedged ones), else the backend's 10 s default. *)
      let min_deadline =
        Option.map (fun b -> Float.max 10. (2. *. b)) cell_budget
      in
      let stats, leftovers =
        Proc_backend.run ~jobs ~argv ~indices:todo ~retries ?min_deadline
          ~progress:(fun l -> Mutex.protect progress_mutex (fun () -> progress l))
          ~on_outcome ()
      in
      exec_stats := Some stats;
      (* Graceful degradation: if the worker fleet collapsed (every slot
         retired), finish the remaining cells in-process rather than losing
         them — slower, but the campaign still completes. Leftovers from a
         requested stop stay abandoned, same as the domains backend. *)
      if leftovers <> [] && not (Dessim.Scheduler.stop_requested ()) then begin
        Mutex.protect progress_mutex (fun () ->
            progress
              (Printf.sprintf
                 "proc backend degraded: running %d remaining cell(s) \
                  in-process"
                 (List.length leftovers)));
        List.iter
          (fun i -> Hashtbl.replace results i (timed_task tasks.(i) ()))
          leftovers
      end;
      Array.map
        (fun i ->
          match Hashtbl.find_opt results i with Some o -> o | None -> Stopped)
        todo
  in
  let total = Unix.gettimeofday () -. t0 in
  let fresh = Hashtbl.create 64 in
  Array.iteri
    (fun k outcome -> Hashtbl.replace fresh (task_key tasks.(todo.(k))) outcome)
    sub_outcomes;
  (* Merge in canonical task order, whatever mix of cached and freshly-run
     outcomes we have: this is what makes a stopped-then-rerun campaign's
     artifact byte-identical to an uninterrupted one. *)
  let cells = ref [] and quarantined = ref [] in
  Array.iter
    (fun t ->
      let key = task_key t in
      match Hashtbl.find_opt pre key with
      | Some c -> cells := c :: !cells
      | None -> (
        match Hashtbl.find_opt fresh key with
        | Some (Done c) -> cells := c :: !cells
        | Some (Failed { error; attempts }) ->
          quarantined :=
            {
              Artifact.q_protocol = t.Sections.t_protocol;
              q_degree = t.Sections.t_degree;
              q_seed = t.Sections.t_seed;
              q_error = error;
              q_attempts = attempts;
            }
            :: !quarantined
        | Some Stopped | None -> ()))
    tasks;
  let cells = Array.of_list (List.rev !cells) in
  let quarantined = List.rev !quarantined in
  (* The exec block appears only when this run used a cache or the proc
     backend: plain in-process campaigns keep their exact prior timing
     layout (and byte output). *)
  let exec =
    let hits, misses =
      match cache with Some c -> Cache.stats c | None -> (0, 0)
    in
    match (cache, backend, !exec_stats) with
    | None, Domains, _ -> None
    | Some _, Domains, _ ->
      Some
        {
          Artifact.x_backend = "domains";
          x_cache_hits = hits;
          x_cache_misses = misses;
          x_spawns = 0;
          x_restarts = 0;
          x_worker_cells = [];
        }
    | _, Proc _, st ->
      let st =
        Option.value st
          ~default:
            { Proc_backend.p_spawns = 0; p_restarts = 0; p_slot_cells = [] }
      in
      Some
        {
          Artifact.x_backend = "proc";
          x_cache_hits = hits;
          x_cache_misses = misses;
          x_spawns = st.Proc_backend.p_spawns;
          x_restarts = st.Proc_backend.p_restarts;
          x_worker_cells = st.Proc_backend.p_slot_cells;
        }
  in
  let timing =
    {
      Artifact.t_jobs = max 1 (min jobs (max 1 n));
      t_wall_s = total;
      t_exec = exec;
      t_cells =
        Array.to_list
          (Array.map
             (fun (c : Cell_result.t) ->
               {
                 Artifact.ct_protocol = c.Cell_result.protocol;
                 ct_degree = c.Cell_result.degree;
                 ct_seed = c.Cell_result.seed;
                 ct_wall_s = c.Cell_result.wall_s;
                 ct_perf = c.Cell_result.perf;
               })
             cells);
    }
  in
  (cells, quarantined, timing)

let missing_count ~total (cells : Cell_result.t array)
    (quarantined : Artifact.quarantine list) =
  total - Array.length cells - List.length quarantined

let artifact_of ~(section : Sections.t) ~mode ?timing ?quarantined sweep cells =
  Artifact.build ~section:section.Sections.name ?timing ?quarantined
    ~include_series:section.Sections.include_series
    (Artifact.params_of_sweep ~mode sweep)
    (Array.to_list cells)

let run ?jobs ?progress ?heartbeat ?cell_budget ?retries ?hang ?stop_after
    ?cache ?backend ~mode sweep (section : Sections.t) =
  let cells, quarantined, timing =
    run_tasks ?jobs ?progress ?heartbeat ?cell_budget ?retries ?hang
      ?stop_after ?cache ?backend (section.Sections.tasks sweep)
  in
  artifact_of ~section ~mode ~timing ~quarantined sweep cells
