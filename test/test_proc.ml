(* The supervised multi-process backend. The test binary is its own worker:
   re-invoked as [<exe> --proc-worker <knobs...>] it speaks the
   {!Campaign.Proc_backend} wire protocol over the same task decomposition
   the parent supervises, with fault knobs to die, die once, or wedge on a
   chosen cell, and a knob that logs every index it receives to a file. *)

module E = Convergence.Engine_registry

let section =
  Campaign.Sections.grid ~name:"proc-grid" ~engines:[ E.dbf; E.rip ] ()

let sweep =
  Convergence.Experiments.(scale ~runs:2 ~degrees:[ 3; 4 ] quick_sweep)

let tasks () = section.Campaign.Sections.tasks sweep

(* ---------- worker side ---------- *)

let worker_main () =
  let die_index = ref None in
  let die_once_marker = ref None in
  let sleep_index = ref None in
  let log_indices = ref None in
  let i = ref 2 in
  while !i < Array.length Sys.argv do
    (match Sys.argv.(!i) with
    | "--die-index" -> die_index := Some (int_of_string Sys.argv.(!i + 1))
    | "--die-once-marker" -> die_once_marker := Some Sys.argv.(!i + 1)
    | "--sleep-index" -> sleep_index := Some (int_of_string Sys.argv.(!i + 1))
    | "--log-indices" -> log_indices := Some Sys.argv.(!i + 1)
    | a ->
      prerr_endline ("unknown worker arg: " ^ a);
      exit 2);
    i := !i + 2
  done;
  let tasks = tasks () in
  let run_cell i =
    Option.iter
      (fun path ->
        Out_channel.with_open_gen
          [ Open_wronly; Open_append; Open_creat ]
          0o644 path
          (fun oc -> Out_channel.output_string oc (string_of_int i ^ "\n")))
      !log_indices;
    if !die_index = Some i then Unix.kill (Unix.getpid ()) Sys.sigkill;
    (match !die_once_marker with
    | Some path when not (Sys.file_exists path) ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "died\n");
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    if !sleep_index = Some i then
      (* Wedge with heartbeats still flowing (SIGALRM interrupts the
         select), so only the cell deadline can reclaim this worker. *)
      while true do
        try ignore (Unix.select [] [] [] 0.05)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
    if i < 0 || i >= Array.length tasks then Error "cell index out of range"
    else begin
      let t0 = Unix.gettimeofday () in
      match Campaign.Driver.attempt_once tasks.(i) with
      | Ok cell -> Ok (Unix.gettimeofday () -. t0, cell)
      | Error e -> Error e
    end
  in
  Campaign.Proc_backend.worker ~run_cell ()

let () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "--proc-worker" then
    worker_main ()

(* ---------- parent side ---------- *)

let worker_argv knobs =
  Array.of_list ((Sys.executable_name :: "--proc-worker" :: knobs))

let canon cells quarantined timing =
  Campaign.Artifact.canonical_string
    (Campaign.Driver.artifact_of ~section ~mode:"quick" ~timing ~quarantined
       sweep cells)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let exec_of (t : Campaign.Artifact.timing) =
  match t.Campaign.Artifact.t_exec with
  | Some x -> x
  | None -> Alcotest.fail "proc run should carry an exec block"

let test_proc_matches_domains () =
  let d_cells, dq, dt = Campaign.Driver.run_tasks ~jobs:2 (tasks ()) in
  let p_cells, pq, pt =
    Campaign.Driver.run_tasks ~jobs:2
      ~backend:(Campaign.Driver.Proc { argv = worker_argv [] })
      (tasks ())
  in
  Alcotest.(check int) "no quarantine" 0 (List.length pq);
  Alcotest.(check string)
    "proc cells are byte-identical to domains" (canon d_cells dq dt)
    (canon p_cells pq pt);
  let x = exec_of pt in
  Alcotest.(check string) "backend recorded" "proc" x.Campaign.Artifact.x_backend;
  Alcotest.(check int) "one spawn per slot" 2 x.Campaign.Artifact.x_spawns;
  Alcotest.(check int) "no restarts" 0 x.Campaign.Artifact.x_restarts;
  Alcotest.(check int)
    "every cell attributed to a worker"
    (Array.length (tasks ()))
    (List.fold_left ( + ) 0 x.Campaign.Artifact.x_worker_cells)

let test_worker_death_recovers () =
  let marker = Filename.temp_file "rcsim_die_once" ".marker" in
  Sys.remove marker;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists marker then Sys.remove marker)
    (fun () ->
      (* jobs=1 so exactly one worker dies exactly once; the respawned
         worker sees the marker and finishes the campaign. *)
      let cells, quarantined, t =
        Campaign.Driver.run_tasks ~jobs:1 ~retries:1
          ~backend:
            (Campaign.Driver.Proc
               { argv = worker_argv [ "--die-once-marker"; marker ] })
          (tasks ())
      in
      Alcotest.(check int)
        "no quarantine after the retry" 0
        (List.length quarantined);
      Alcotest.(check int)
        "all cells completed"
        (Array.length (tasks ()))
        (Array.length cells);
      let x = exec_of t in
      Alcotest.(check bool)
        "the death was a supervised restart" true
        (x.Campaign.Artifact.x_restarts >= 1);
      Alcotest.(check int)
        "spawns = slots + restarts"
        (1 + x.Campaign.Artifact.x_restarts)
        x.Campaign.Artifact.x_spawns)

let test_persistent_crash_quarantines () =
  let total = Array.length (tasks ()) in
  let victim = 1 in
  let messages = Buffer.create 256 in
  let cells, quarantined, _ =
    Campaign.Driver.run_tasks ~jobs:2 ~retries:1
      ~progress:(fun s -> Buffer.add_string messages (s ^ "\n"))
      ~backend:
        (Campaign.Driver.Proc
           { argv = worker_argv [ "--die-index"; string_of_int victim ] })
      (tasks ())
  in
  (match quarantined with
  | [ q ] ->
    let p, d, s = Campaign.Driver.task_key (tasks ()).(victim) in
    Alcotest.(check (triple string int int))
      "the crashing cell is the quarantined one" (p, d, s)
      ( q.Campaign.Artifact.q_protocol,
        q.Campaign.Artifact.q_degree,
        q.Campaign.Artifact.q_seed );
    Alcotest.(check int)
      "attempt budget spent" 2 q.Campaign.Artifact.q_attempts
  | l -> Alcotest.failf "expected exactly 1 quarantined cell, got %d"
           (List.length l));
  Alcotest.(check int)
    "every other cell survived" (total - 1) (Array.length cells);
  Alcotest.(check bool)
    "supervisor reported the respawn" true
    (contains ~affix:"respawning" (Buffer.contents messages))

let test_deadline_reclaims_wedged_worker () =
  let outcomes = ref [] in
  let stats, leftovers =
    Campaign.Proc_backend.run ~jobs:1
      ~argv:(worker_argv [ "--sleep-index"; "0" ])
      ~indices:[| 0 |] ~retries:0 ~min_deadline:0.4
      ~progress:(fun _ -> ())
      ~on_outcome:(fun o -> outcomes := o :: !outcomes)
      ()
  in
  Alcotest.(check (list int)) "nothing left over" [] leftovers;
  (match !outcomes with
  | [ Campaign.Proc_backend.Quarantined { index; error; attempts } ] ->
    Alcotest.(check int) "the wedged cell" 0 index;
    Alcotest.(check int) "single attempt at retries=0" 1 attempts;
    Alcotest.(check bool)
      (Printf.sprintf "deadline named in %S" error)
      true
      (contains ~affix:"deadline exceeded" error)
  | _ -> Alcotest.fail "expected exactly one Quarantined outcome");
  Alcotest.(check bool)
    "the kill was counted as a restart" true (stats.Campaign.Proc_backend.p_restarts >= 1)

let test_unrunnable_worker_degrades_in_process () =
  let messages = Buffer.create 256 in
  let cells, quarantined, t =
    Campaign.Driver.run_tasks ~jobs:2 ~retries:1
      ~progress:(fun s -> Buffer.add_string messages (s ^ "\n"))
      ~backend:
        (Campaign.Driver.Proc
           { argv = [| "/nonexistent/rcsim-worker"; "--proc-worker" |] })
      (tasks ())
  in
  Alcotest.(check int) "no quarantine" 0 (List.length quarantined);
  Alcotest.(check int)
    "every cell completed in-process"
    (Array.length (tasks ()))
    (Array.length cells);
  Alcotest.(check bool)
    "degradation was announced" true
    (contains ~affix:"degraded" (Buffer.contents messages));
  let x = exec_of t in
  Alcotest.(check int)
    "no worker ever completed a cell" 0
    (List.fold_left ( + ) 0 x.Campaign.Artifact.x_worker_cells)

(* The parent hands a worker its next cell as soon as it has read the
   worker's record for the last one, before [on_outcome] stores and reports
   it: so while [on_outcome] for cell k waits, the worker must already have
   received cell k+1. *)
let test_next_cell_dispatched_before_outcome () =
  let log = Filename.temp_file "rcsim_indices" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
    (fun () ->
      let received () =
        In_channel.with_open_bin log In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map int_of_string_opt
      in
      let early = ref [] in
      let on_outcome = function
        | Campaign.Proc_backend.Cell { index; _ } when index < 2 ->
          let deadline = Unix.gettimeofday () +. 5. in
          let rec wait () =
            if List.mem (index + 1) (received ()) then
              early := index :: !early
            else if Unix.gettimeofday () < deadline then begin
              Unix.sleepf 0.01;
              wait ()
            end
          in
          wait ()
        | _ -> ()
      in
      let _, leftovers =
        Campaign.Proc_backend.run ~jobs:1
          ~argv:(worker_argv [ "--log-indices"; log ])
          ~indices:[| 0; 1; 2 |] ~retries:0
          ~progress:(fun _ -> ())
          ~on_outcome ()
      in
      Alcotest.(check (list int)) "nothing left over" [] leftovers;
      Alcotest.(check (list int)) "every index received once" [ 0; 1; 2 ]
        (received ());
      Alcotest.(check (list int))
        "cell k+1 reached the worker before on_outcome for cell k returned"
        [ 0; 1 ] (List.rev !early))

let cache_ctx =
  {
    Campaign.Cache.git_sha = "test";
    family = section.Campaign.Sections.family;
    mode = "quick";
    runs = Some 2;
    degrees = Some [ 3; 4 ];
    seed = None;
  }

(* A stop after 3 cells at --jobs 1: the fourth cell was already dispatched
   when the third was stored, and it is abandoned with its worker, so the
   cache holds exactly the 3 reported cells. *)
let test_stop_stores_only_reported_cells () =
  let tasks = tasks () in
  let clean_cells, clean_q, clean_t = Campaign.Driver.run_tasks ~jobs:2 tasks in
  let backend = Campaign.Driver.Proc { argv = worker_argv [] } in
  Temp_dir.with_temp_dir (fun dir ->
      Fun.protect ~finally:Dessim.Scheduler.clear_stop (fun () ->
          let reported = ref 0 in
          let progress line =
            (* a finished cell's line: "DBF    d=3 seed=1 (k/8) 0.12s" *)
            if contains ~affix:(Printf.sprintf "/%d) " (Array.length tasks)) line
            then incr reported
          in
          let cells1, q1, _ =
            Campaign.Driver.run_tasks ~jobs:1 ~stop_after:3 ~progress
              ~cache:(Campaign.Cache.open_ ~dir cache_ctx)
              ~backend tasks
          in
          Dessim.Scheduler.clear_stop ();
          Alcotest.(check int) "no quarantine" 0 (List.length q1);
          Alcotest.(check int) "three cells returned" 3 (Array.length cells1);
          Alcotest.(check int) "three cells reported" 3 !reported;
          Alcotest.(check int) "three entries stored" 3
            (Array.length (Sys.readdir dir));
          let probe = Campaign.Cache.open_ ~dir cache_ctx in
          Array.iter
            (fun (c : Campaign.Cell_result.t) ->
              let protocol, degree, seed = Campaign.Cell_result.key c in
              if Campaign.Cache.find probe ~protocol ~degree ~seed = None then
                Alcotest.failf "%s d=%d seed=%d not stored" protocol degree
                  seed)
            cells1;
          let cache = Campaign.Cache.open_ ~dir cache_ctx in
          let cells2, q2, t2 =
            Campaign.Driver.run_tasks ~jobs:1 ~cache ~backend tasks
          in
          Alcotest.(check int) "rerun reads the three stored cells" 3
            (fst (Campaign.Cache.stats cache));
          Alcotest.(check string) "rerun is byte-identical to a clean run"
            (canon clean_cells clean_q clean_t)
            (canon cells2 q2 t2)))

let () =
  Alcotest.run "proc"
    [
      ( "proc",
        [
          Alcotest.test_case "proc matches domains byte-for-byte" `Quick
            test_proc_matches_domains;
          Alcotest.test_case "worker death recovers via respawn" `Quick
            test_worker_death_recovers;
          Alcotest.test_case "persistent crash quarantines one cell" `Quick
            test_persistent_crash_quarantines;
          Alcotest.test_case "deadline reclaims a wedged worker" `Quick
            test_deadline_reclaims_wedged_worker;
          Alcotest.test_case "unrunnable worker degrades in-process" `Quick
            test_unrunnable_worker_degrades_in_process;
          Alcotest.test_case "next cell dispatched before on_outcome" `Quick
            test_next_cell_dispatched_before_outcome;
          Alcotest.test_case "stop stores only the reported cells" `Quick
            test_stop_stores_only_reported_cells;
        ] );
    ]
