(* The content-addressed cell cache: every input perturbs the key, entries
   round-trip real cells, anything corrupt degrades to a miss (never an
   error), and a fully-cached re-run reproduces the fresh artifact byte for
   byte at any worker count. *)

module E = Convergence.Engine_registry

let section =
  Campaign.Sections.grid ~name:"cache-grid" ~engines:[ E.dbf; E.rip ] ()

let sweep =
  Convergence.Experiments.(scale ~runs:2 ~degrees:[ 3; 4 ] quick_sweep)

let tasks () = section.Campaign.Sections.tasks sweep

let base_ctx =
  {
    Campaign.Cache.git_sha = "abc1234";
    family = section.Campaign.Sections.family;
    mode = "quick";
    runs = Some 2;
    degrees = Some [ 3; 4 ];
    seed = None;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "rcsim_cache" "" in
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

let cell_json (c : Campaign.Cell_result.t) =
  Obs.Json.to_string (Campaign.Cell_result.to_json ~include_series:true c)

let run_task (t : Campaign.Sections.task) = t.Campaign.Sections.t_run ()

(* ---------- key derivation ---------- *)

let test_key_covers_every_input () =
  with_temp_dir (fun dir ->
      let key ctx = Campaign.Cache.key (Campaign.Cache.open_ ~dir ctx) in
      let base = key base_ctx ~protocol:"RIP" ~degree:3 ~seed:1 in
      let variants =
        [
          ("git sha", { base_ctx with Campaign.Cache.git_sha = "def5678" });
          ("family", { base_ctx with Campaign.Cache.family = "other" });
          ("mode", { base_ctx with Campaign.Cache.mode = "full" });
          ("runs", { base_ctx with Campaign.Cache.runs = Some 3 });
          ("runs absent", { base_ctx with Campaign.Cache.runs = None });
          ("degrees", { base_ctx with Campaign.Cache.degrees = Some [ 3 ] });
          ("degrees absent", { base_ctx with Campaign.Cache.degrees = None });
          ("seed", { base_ctx with Campaign.Cache.seed = Some 7 });
        ]
      in
      List.iter
        (fun (what, ctx) ->
          Alcotest.(check bool)
            (what ^ " perturbs the key") false
            (String.equal base (key ctx ~protocol:"RIP" ~degree:3 ~seed:1)))
        variants;
      List.iter
        (fun (what, p, d, s) ->
          Alcotest.(check bool)
            (what ^ " perturbs the key") false
            (String.equal base (key base_ctx ~protocol:p ~degree:d ~seed:s)))
        [
          ("protocol", "DBF", 3, 1);
          ("degree", "RIP", 4, 1);
          ("cell seed", "RIP", 3, 2);
        ];
      (* Same inputs, fresh handle: stable. *)
      Alcotest.(check string)
        "key is stable across handles" base
        (key base_ctx ~protocol:"RIP" ~degree:3 ~seed:1))

(* The code that computes a cell is part of its key: a rebuilt executable
   never reads entries an older build stored. *)
let test_key_names_executable () =
  with_temp_dir (fun dir ->
      let exe = Digest.to_hex (Digest.file Sys.executable_name) in
      let key =
        Campaign.Cache.key
          (Campaign.Cache.open_ ~dir base_ctx)
          ~protocol:"RIP" ~degree:3 ~seed:1
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S names exe=%s" key exe)
        true
        (contains ~affix:(" exe=" ^ exe ^ " ") key))

(* ---------- store / find ---------- *)

let test_store_find_roundtrip () =
  with_temp_dir (fun dir ->
      let c = Campaign.Cache.open_ ~dir base_ctx in
      let t = (tasks ()).(0) in
      let protocol, degree, seed = Campaign.Driver.task_key t in
      let cell =
        {
          (run_task t) with
          Campaign.Cell_result.wall_s = 1.25;
          perf = [ ("events_per_s", 3.5e6); ("vmhwm_mb", 27.4) ];
        }
      in
      Campaign.Cache.store c cell;
      (match Campaign.Cache.find c ~protocol ~degree ~seed with
      | None -> Alcotest.fail "stored cell not found"
      | Some got ->
        Alcotest.(check string)
          "row round-trips exactly" (cell_json cell) (cell_json got);
        Alcotest.(check (float 1e-9))
          "wall_s rides along" 1.25 got.Campaign.Cell_result.wall_s;
        Alcotest.(check bool)
          "the cell fired events" true
          (cell.Campaign.Cell_result.events > 0);
        Alcotest.(check int)
          "events ride along" cell.Campaign.Cell_result.events
          got.Campaign.Cell_result.events;
        Alcotest.(check (list (pair string (float 0.))))
          "perf rides along" cell.Campaign.Cell_result.perf
          got.Campaign.Cell_result.perf);
      Alcotest.(check bool)
        "different seed misses" true
        (Campaign.Cache.find c ~protocol ~degree ~seed:999 = None);
      Alcotest.(check bool)
        "stats: 2 hits either way" true
        (Campaign.Cache.stats c = (1, 1)))

let test_context_mismatch_is_miss () =
  with_temp_dir (fun dir ->
      let a = Campaign.Cache.open_ ~dir base_ctx in
      let t = (tasks ()).(0) in
      let protocol, degree, seed = Campaign.Driver.task_key t in
      Campaign.Cache.store a (run_task t);
      let b =
        Campaign.Cache.open_ ~dir
          { base_ctx with Campaign.Cache.git_sha = "0000000" }
      in
      Alcotest.(check bool)
        "other sha cannot see the entry" true
        (Campaign.Cache.find b ~protocol ~degree ~seed = None))

let test_corrupt_entry_is_miss () =
  with_temp_dir (fun dir ->
      let c = Campaign.Cache.open_ ~dir base_ctx in
      let t = (tasks ()).(0) in
      let protocol, degree, seed = Campaign.Driver.task_key t in
      Campaign.Cache.store c (run_task t);
      let entry =
        match Sys.readdir dir with
        | [| one |] -> Filename.concat dir one
        | files -> Alcotest.failf "expected 1 entry file, found %d" (Array.length files)
      in
      let original = In_channel.with_open_bin entry In_channel.input_all in
      let rewrite s =
        Out_channel.with_open_bin entry (fun oc ->
            Out_channel.output_string oc s)
      in
      (* A flipped byte fails the CRC. *)
      let flipped = Bytes.of_string original in
      Bytes.set flipped (String.length original / 2)
        (if Bytes.get flipped (String.length original / 2) = 'x' then 'y'
         else 'x');
      rewrite (Bytes.to_string flipped);
      Alcotest.(check bool)
        "flipped byte is a miss" true
        (Campaign.Cache.find c ~protocol ~degree ~seed = None);
      (* A torn (truncated) entry is a miss. *)
      rewrite (String.sub original 0 (String.length original / 3));
      Alcotest.(check bool)
        "truncated entry is a miss" true
        (Campaign.Cache.find c ~protocol ~degree ~seed = None);
      (* Garbage is a miss. *)
      rewrite "not a cache entry at all\n";
      Alcotest.(check bool)
        "garbage is a miss" true
        (Campaign.Cache.find c ~protocol ~degree ~seed = None);
      (* And the campaign driver shrugs it all off: the cell re-runs. *)
      let cells, quarantined, _ =
        Campaign.Driver.run_tasks ~jobs:1 ~cache:c (tasks ())
      in
      Alcotest.(check int) "no quarantine" 0 (List.length quarantined);
      Alcotest.(check int)
        "all cells present" (Array.length (tasks ())) (Array.length cells))

(* ---------- whole-campaign byte identity ---------- *)

let artifact_of cells quarantined timing =
  Campaign.Driver.artifact_of ~section ~mode:"quick" ~timing ~quarantined sweep
    cells

let test_cached_rerun_is_byte_identical () =
  with_temp_dir (fun dir ->
      let fresh_cells, fq, ft = Campaign.Driver.run_tasks ~jobs:1 (tasks ()) in
      let canon_fresh =
        Campaign.Artifact.canonical_string (artifact_of fresh_cells fq ft)
      in
      let c1 = Campaign.Cache.open_ ~dir base_ctx in
      let cells1, q1, t1 =
        Campaign.Driver.run_tasks ~jobs:2 ~cache:c1 (tasks ())
      in
      Alcotest.(check bool)
        "first cached run stored everything" true
        (fst (Campaign.Cache.stats c1) = 0);
      Alcotest.(check string)
        "cache-miss run matches uncached bytes" canon_fresh
        (Campaign.Artifact.canonical_string (artifact_of cells1 q1 t1));
      (* Second run: every cell from cache, any jobs count, same bytes. *)
      List.iter
        (fun jobs ->
          let c2 = Campaign.Cache.open_ ~dir base_ctx in
          let cells2, q2, t2 =
            Campaign.Driver.run_tasks ~jobs ~cache:c2 (tasks ())
          in
          let hits, misses = Campaign.Cache.stats c2 in
          Alcotest.(check int) "all hits" (Array.length (tasks ())) hits;
          Alcotest.(check int) "no misses" 0 misses;
          Alcotest.(check string)
            (Printf.sprintf "fully-cached rerun at jobs=%d is byte-identical"
               jobs)
            canon_fresh
            (Campaign.Artifact.canonical_string (artifact_of cells2 q2 t2));
          match (t2.Campaign.Artifact.t_exec : Campaign.Artifact.exec option) with
          | Some x ->
            Alcotest.(check int)
              "exec records the hits" hits x.Campaign.Artifact.x_cache_hits
          | None -> Alcotest.fail "cached run should carry an exec block")
        [ 1; 4 ])

(* ---------- exec block serialization ---------- *)

let test_exec_block_roundtrip () =
  let t = (tasks ()).(0) in
  let cell = run_task t in
  let params = Campaign.Artifact.params_of_sweep ~mode:"quick" sweep in
  let exec =
    {
      Campaign.Artifact.x_backend = "proc";
      x_cache_hits = 3;
      x_cache_misses = 5;
      x_spawns = 4;
      x_restarts = 2;
      x_worker_cells = [ 2; 0; 3 ];
    }
  in
  let timing ~exec =
    {
      Campaign.Artifact.t_jobs = 2;
      t_wall_s = 1.0;
      t_exec = exec;
      t_cells = [];
    }
  in
  let build ~exec =
    Campaign.Artifact.build ~section:"cache-grid" ~git_sha:"test"
      ~timing:(timing ~exec) ~include_series:false params [ cell ]
  in
  let a = build ~exec:(Some exec) in
  (match Campaign.Artifact.of_json (Campaign.Artifact.to_json a) with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok b -> (
    match b.Campaign.Artifact.timing with
    | Some { Campaign.Artifact.t_exec = Some x; _ } ->
      Alcotest.(check bool) "exec round-trips" true (x = exec)
    | _ -> Alcotest.fail "exec block lost in round-trip"));
  Alcotest.(check (list string))
    "artifact with exec validates" []
    (Campaign.Artifact.validate (Campaign.Artifact.to_json a));
  (* Without exec, the timing block keeps its pre-existing byte layout. *)
  let plain = Obs.Json.to_string (Campaign.Artifact.to_json (build ~exec:None)) in
  Alcotest.(check bool)
    "no exec key when absent" false
    (contains ~affix:"\"exec\"" plain);
  (* Exec never leaks into the canonical form. *)
  Alcotest.(check string)
    "canonical form ignores exec"
    (Campaign.Artifact.canonical_string (build ~exec:None))
    (Campaign.Artifact.canonical_string a)

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "key covers every input" `Quick
            test_key_covers_every_input;
          Alcotest.test_case "key names the executable" `Quick
            test_key_names_executable;
          Alcotest.test_case "store/find round-trip" `Quick
            test_store_find_roundtrip;
          Alcotest.test_case "context mismatch is a miss" `Quick
            test_context_mismatch_is_miss;
          Alcotest.test_case "corruption degrades to a miss" `Quick
            test_corrupt_entry_is_miss;
          Alcotest.test_case "cached rerun is byte-identical" `Quick
            test_cached_rerun_is_byte_identical;
          Alcotest.test_case "exec block serialization" `Quick
            test_exec_block_roundtrip;
        ] );
    ]
