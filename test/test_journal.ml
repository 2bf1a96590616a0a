(* Stop and rerun over the cell cache, the one store of finished cells: a
   campaign stopped part-way leaves exactly its finished cells in the
   cache, and rerunning the same tasks on the same directory computes only
   the rest and produces the exact artifact bytes an uninterrupted run
   produces — at any worker count. The "kill" here is the driver's
   deterministic [stop_after] hook (the same cooperative stop a SIGINT
   triggers); the CI resume-smoke job drives the same path through real
   processes. *)

module E = Convergence.Engine_registry

let section =
  Campaign.Sections.grid ~name:"rerun-grid" ~engines:[ E.dbf; E.rip ] ()

let sweep =
  Convergence.Experiments.(scale ~runs:2 ~degrees:[ 3; 4 ] quick_sweep)

let tasks () = section.Campaign.Sections.tasks sweep

let ctx =
  {
    Campaign.Cache.git_sha = "test";
    family = section.Campaign.Sections.family;
    mode = "quick";
    runs = Some 2;
    degrees = Some [ 3; 4 ];
    seed = None;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "rcsim_rerun" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let row_json (c : Campaign.Cell_result.t) =
  Obs.Json.to_string (Campaign.Cell_result.to_json ~include_series:true c)

let envelope_json (c : Campaign.Cell_result.t) =
  Obs.Json.to_string (Obs.Json.Obj (Campaign.Cell_result.envelope_fields c))

(* The entry file of one cell, as the cache names it. *)
let entry_path dir cache (c : Campaign.Cell_result.t) =
  let protocol, degree, seed = Campaign.Cell_result.key c in
  Filename.concat dir
    (Digest.to_hex
       (Digest.string (Campaign.Cache.key cache ~protocol ~degree ~seed))
    ^ ".json")

let truncate path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw / 2)))

let missing tasks cells quarantined =
  Campaign.Driver.missing_count ~total:(Array.length tasks) cells quarantined

(* ---------- CRC and framing ---------- *)

let test_crc32_vector () =
  (* The standard CRC-32 check value. *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926
    (Campaign.Frame.crc32 "123456789");
  Alcotest.(check int) "crc32 of empty" 0 (Campaign.Frame.crc32 "")

(* ---------- round-trips ---------- *)

let test_cells_round_trip () =
  let tasks = tasks () in
  let cells, quarantined, _ = Campaign.Driver.run_tasks tasks in
  Alcotest.(check int) "all cells ran" (Array.length tasks) (Array.length cells);
  Alcotest.(check int) "nothing quarantined" 0 (List.length quarantined);
  Array.iteri
    (fun i (orig : Campaign.Cell_result.t) ->
      let orig =
        {
          orig with
          Campaign.Cell_result.perf =
            [ ("events_per_s", 4.25e6); ("ns_per_event", 235.3) ];
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "cell %d fired events" i)
        true
        (orig.Campaign.Cell_result.events > 0);
      (* Through the CRC framing, as a cache entry or a worker record
         travels. *)
      let back =
        match
          Result.bind
            (Campaign.Frame.unframe
               (String.trim (Campaign.Frame.frame (envelope_json orig))))
            Campaign.Cell_result.of_envelope
        with
        | Ok c -> c
        | Error e -> Alcotest.failf "cell %d: envelope did not decode: %s" i e
      in
      (* The decoded cell re-serializes to the same bytes, transient fields
         included: this is the property a byte-identical rerun rests on. *)
      Alcotest.(check string)
        (Printf.sprintf "cell %d row bytes" i)
        (row_json orig) (row_json back);
      Alcotest.(check string)
        (Printf.sprintf "cell %d envelope bytes" i)
        (envelope_json orig) (envelope_json back);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d wall_s restored" i)
        true
        (back.Campaign.Cell_result.wall_s = orig.Campaign.Cell_result.wall_s);
      Alcotest.(check int)
        (Printf.sprintf "cell %d events restored" i)
        orig.Campaign.Cell_result.events back.Campaign.Cell_result.events;
      Alcotest.(check bool)
        (Printf.sprintf "cell %d perf restored" i)
        true
        (back.Campaign.Cell_result.perf = orig.Campaign.Cell_result.perf))
    cells

(* ---------- failure tolerance ---------- *)

let test_truncated_tail_tolerated () =
  with_temp_dir (fun dir ->
      let cache = Campaign.Cache.open_ ~dir ctx in
      let cells, _, _ = Campaign.Driver.run_tasks ~cache (tasks ()) in
      (* Simulate a write torn mid-entry: the first half of one file. *)
      let victim = cells.(1) in
      truncate (entry_path dir cache victim);
      let fresh = Campaign.Cache.open_ ~dir ctx in
      Array.iter
        (fun (c : Campaign.Cell_result.t) ->
          let protocol, degree, seed = Campaign.Cell_result.key c in
          Alcotest.(check bool)
            (Printf.sprintf "%s d=%d seed=%d found" protocol degree seed)
            (c != victim)
            (Campaign.Cache.find fresh ~protocol ~degree ~seed <> None))
        cells)

(* ---------- stop + rerun = byte-identical artifact ---------- *)

let canonical cells quarantined =
  Campaign.Artifact.canonical_string
    (Campaign.Driver.artifact_of ~section ~mode:"quick" ~quarantined sweep
       cells)

let test_stop_resume_byte_identity () =
  let tasks = tasks () in
  let clean_cells, clean_q, _ = Campaign.Driver.run_tasks tasks in
  let clean = canonical clean_cells clean_q in
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          Fun.protect ~finally:Dessim.Scheduler.clear_stop (fun () ->
              (* Stopped run: stop after 3 cells; with jobs > 1 a few
                 in-flight cells may land too, which the rerun must
                 tolerate. *)
              let cells1, q1, _ =
                Campaign.Driver.run_tasks ~jobs ~stop_after:3
                  ~cache:(Campaign.Cache.open_ ~dir ctx) tasks
              in
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d: stop left cells missing" jobs)
                true
                (missing tasks cells1 q1 > 0);
              Dessim.Scheduler.clear_stop ();
              (* The directory holds exactly the cells the stopped run
                 returned, byte for byte. *)
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d: one entry per returned cell" jobs)
                (Array.length cells1)
                (Array.length (Sys.readdir dir));
              let probe = Campaign.Cache.open_ ~dir ctx in
              Array.iter
                (fun (c : Campaign.Cell_result.t) ->
                  let protocol, degree, seed = Campaign.Cell_result.key c in
                  match Campaign.Cache.find probe ~protocol ~degree ~seed with
                  | Some got ->
                    Alcotest.(check string)
                      (Printf.sprintf "jobs=%d: stored bytes" jobs)
                      (row_json c) (row_json got)
                  | None ->
                    Alcotest.failf "jobs=%d: %s d=%d seed=%d not stored" jobs
                      protocol degree seed)
                cells1;
              (* Rerun the same tasks on the same directory, as the CLI
                 does when the same command is given again. *)
              let cache = Campaign.Cache.open_ ~dir ctx in
              let cells2, q2, _ = Campaign.Driver.run_tasks ~jobs ~cache tasks in
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d: rerun completes" jobs)
                0 (missing tasks cells2 q2);
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d: rerun reads the stopped run's cells"
                   jobs)
                (Array.length cells1)
                (fst (Campaign.Cache.stats cache));
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d: byte-identical artifact" jobs)
                clean (canonical cells2 q2))))
    [ 1; 3 ]

let test_resume_after_torn_tail () =
  with_temp_dir (fun dir ->
      let tasks = tasks () in
      Fun.protect ~finally:Dessim.Scheduler.clear_stop (fun () ->
          let cache = Campaign.Cache.open_ ~dir ctx in
          let cells1, _, _ =
            Campaign.Driver.run_tasks ~stop_after:2 ~cache tasks
          in
          Dessim.Scheduler.clear_stop ();
          Alcotest.(check int) "stopped after 2 cells" 2 (Array.length cells1);
          (* The kill tore the last entry written: the rerun must treat it
             as a miss, re-run that cell, and still converge to the clean
             artifact. *)
          let victim = cells1.(1) in
          truncate (entry_path dir cache victim);
          let cache = Campaign.Cache.open_ ~dir ctx in
          let ran = ref [] in
          let cells, q, _ =
            Campaign.Driver.run_tasks ~cache
              ~progress:(fun l -> ran := l :: !ran)
              tasks
          in
          Alcotest.(check (pair int int))
            "one of the two stored cells hits" (1, Array.length tasks - 1)
            (Campaign.Cache.stats cache);
          let protocol, degree, seed = Campaign.Cell_result.key victim in
          Alcotest.(check bool)
            "the torn cell is among those run" true
            (List.exists
               (contains
                  ~affix:(Printf.sprintf "%-6s d=%d seed=%d (" protocol degree seed))
               !ran);
          let clean_cells, clean_q, _ = Campaign.Driver.run_tasks tasks in
          Alcotest.(check string)
            "byte-identical after a torn entry"
            (canonical clean_cells clean_q)
            (canonical cells q)))

(* A quarantine records a failed attempt under one run's budget and host,
   not a property of the cell: it is never stored, so the rerun tries the
   cell again. *)
let test_rerun_retries_quarantined () =
  let tasks = tasks () in
  let flaky = Array.copy tasks in
  let first = ref true in
  let t0 = tasks.(0) in
  flaky.(0) <-
    {
      t0 with
      Campaign.Sections.t_run =
        (fun () ->
          if !first then begin
            first := false;
            failwith "first attempt fails"
          end
          else t0.Campaign.Sections.t_run ());
    };
  with_temp_dir (fun dir ->
      Fun.protect ~finally:Dessim.Scheduler.clear_stop (fun () ->
          let cells1, q1, _ =
            Campaign.Driver.run_tasks ~retries:0 ~stop_after:3
              ~cache:(Campaign.Cache.open_ ~dir ctx) flaky
          in
          Alcotest.(check (list (triple string int int)))
            "the flaky cell is quarantined"
            [ Campaign.Driver.task_key t0 ]
            (List.map Campaign.Artifact.quarantine_key q1);
          Alcotest.(check bool)
            "the stop left cells missing" true
            (missing tasks cells1 q1 > 0);
          Dessim.Scheduler.clear_stop ();
          let cells2, q2, _ =
            Campaign.Driver.run_tasks ~retries:0
              ~cache:(Campaign.Cache.open_ ~dir ctx) flaky
          in
          Alcotest.(check int) "nothing quarantined on the rerun" 0
            (List.length q2);
          Alcotest.(check int) "rerun completes" 0 (missing tasks cells2 q2);
          let clean_cells, clean_q, _ = Campaign.Driver.run_tasks tasks in
          Alcotest.(check string)
            "byte-identical to an uninterrupted run"
            (canonical clean_cells clean_q)
            (canonical cells2 q2)))

(* ---------- heartbeat ---------- *)

let test_heartbeat_emitted () =
  let tasks = tasks () in
  let beats = ref [] in
  let _ =
    Campaign.Driver.run_tasks ~heartbeat:(fun l -> beats := l :: !beats) tasks
  in
  (* One beat per completed cell except the last (nothing remaining). *)
  Alcotest.(check int) "beats" (Array.length tasks - 1) (List.length !beats);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "beat mentions total (%s)" b)
        true
        (contains
           ~affix:(Printf.sprintf "/%d cells" (Array.length tasks))
           b);
      Alcotest.(check bool)
        (Printf.sprintf "beat has an ETA (%s)" b)
        true
        (contains ~affix:"ETA" b))
    !beats

let () =
  Alcotest.run "journal"
    [
      ( "format",
        [
          Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
          Alcotest.test_case "cells round-trip byte-exact" `Quick
            test_cells_round_trip;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "torn tail tolerated" `Quick
            test_truncated_tail_tolerated;
        ] );
      ( "resume",
        [
          Alcotest.test_case "stop+resume byte identity (jobs 1, 3)" `Quick
            test_stop_resume_byte_identity;
          Alcotest.test_case "resume after torn tail" `Quick
            test_resume_after_torn_tail;
          Alcotest.test_case "rerun retries a quarantined cell" `Quick
            test_rerun_retries_quarantined;
          Alcotest.test_case "heartbeat per cell with ETA" `Quick
            test_heartbeat_emitted;
        ] );
    ]
