(* Tests for the campaign subsystem: the domain pool, the aggregation rules,
   artifact (de)serialization, the determinism-under-parallelism guarantee,
   and the artifact differ. *)

(* ---------- Pool ---------- *)

let test_pool_preserves_order () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  List.iter
    (fun jobs ->
      let r = Campaign.Pool.run ~jobs tasks in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.init 37 (fun i -> i * i))
        r)
    [ 1; 2; 3; 8; 64 ]

let test_pool_runs_each_task_once () =
  let n = 101 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let tasks = Array.init n (fun i () -> Atomic.incr hits.(i)) in
  ignore (Campaign.Pool.run ~jobs:4 tasks);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d" i) 1 (Atomic.get c))
    hits

let test_pool_empty_and_oversubscribed () =
  Alcotest.(check (array int)) "empty" [||] (Campaign.Pool.run ~jobs:8 [||]);
  Alcotest.(check (array int))
    "more jobs than tasks" [| 0; 1 |]
    (Campaign.Pool.run ~jobs:16 (Array.init 2 (fun i () -> i)))

let test_pool_propagates_first_exception () =
  let tasks =
    Array.init 20 (fun i () -> if i >= 7 then failwith (string_of_int i) else i)
  in
  List.iter
    (fun jobs ->
      match Campaign.Pool.run ~jobs tasks with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* All of tasks 7..19 fail; the lowest-indexed failure wins so the
           error is deterministic whatever the worker count. *)
        Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) "7" msg)
    [ 1; 3 ]

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least 1" true (Campaign.Pool.default_jobs () >= 1)

(* ---------- aggregation fixtures ---------- *)

let cell ?(protocol = "P") ?(degree = 3) ~seed ~drops ?(conv = 1.5) ?(extras = [])
    ?(axes = []) ?(series = []) () =
  {
    Campaign.Cell_result.protocol;
    degree;
    seed;
    sent = 100;
    delivered = 100 - drops;
    drops_no_route = drops;
    drops_ttl = 0;
    drops_queue = 0;
    drops_link = 0;
    looped_delivered = 0;
    looped_dropped = 0;
    ctrl_messages = 10;
    ctrl_bytes = 500;
    fwd_convergence = conv;
    routing_convergence = 2. *. conv;
    transient_paths = 1;
    extras;
    axes;
    series;
    wall_s = 0.;
    perf = [];
    events = 0;
  }

let stat_of aggregate name =
  match List.assoc_opt name aggregate.Campaign.Artifact.a_metrics with
  | Some s -> s
  | None -> Alcotest.failf "aggregate lacks metric %S" name

let test_aggregate_mean_stddev () =
  (* drops 1, 2, 3: mean 2, population stddev sqrt(2/3). *)
  let cells =
    [ cell ~seed:1 ~drops:1 (); cell ~seed:2 ~drops:2 (); cell ~seed:3 ~drops:3 () ]
  in
  match Campaign.Artifact.aggregate cells with
  | [ g ] ->
    Alcotest.(check string) "protocol" "P" g.Campaign.Artifact.a_protocol;
    Alcotest.(check int) "degree" 3 g.Campaign.Artifact.a_degree;
    Alcotest.(check int) "runs" 3 g.Campaign.Artifact.a_runs;
    let s = stat_of g "drops_no_route" in
    Alcotest.(check (float 1e-12)) "mean" 2. s.Campaign.Artifact.mean;
    Alcotest.(check (float 1e-12))
      "stddev" (sqrt (2. /. 3.)) s.Campaign.Artifact.stddev;
    let c = stat_of g "fwd_convergence" in
    Alcotest.(check (float 1e-12)) "conv mean" 1.5 c.Campaign.Artifact.mean;
    Alcotest.(check (float 1e-12)) "conv stddev" 0. c.Campaign.Artifact.stddev
  | gs -> Alcotest.failf "expected 1 aggregate, got %d" (List.length gs)

let test_aggregate_groups_in_first_appearance_order () =
  let cells =
    [
      cell ~protocol:"RIP" ~degree:3 ~seed:1 ~drops:1 ();
      cell ~protocol:"RIP" ~degree:4 ~seed:1 ~drops:2 ();
      cell ~protocol:"DBF" ~degree:3 ~seed:1 ~drops:3 ();
    ]
  in
  let keys =
    List.map
      (fun g -> (g.Campaign.Artifact.a_protocol, g.Campaign.Artifact.a_degree))
      (Campaign.Artifact.aggregate cells)
  in
  (* RIP before DBF: first-appearance order, not alphabetical — this is what
     keeps the rendered tables in the paper's column order. *)
  Alcotest.(check (list (pair string int)))
    "order" [ ("RIP", 3); ("RIP", 4); ("DBF", 3) ] keys

let test_aggregate_extras_and_series () =
  let series counts sums =
    {
      Campaign.Cell_result.s_start = 0.;
      s_width = 1.;
      s_counts = counts;
      s_sums = sums;
    }
  in
  let cells =
    [
      cell ~seed:1 ~drops:0
        ~extras:[ ("delivery_ratio", 0.5) ]
        ~series:[ ("throughput", series [| 1.; 2. |] [| 10.; 20. |]) ]
        ();
      cell ~seed:2 ~drops:0
        ~extras:[ ("delivery_ratio", 1.0) ]
        ~series:[ ("throughput", series [| 3.; 4. |] [| 30.; 40. |]) ]
        ();
    ]
  in
  match Campaign.Artifact.aggregate cells with
  | [ g ] ->
    let s = stat_of g "delivery_ratio" in
    Alcotest.(check (float 1e-12)) "extra mean" 0.75 s.Campaign.Artifact.mean;
    (match List.assoc_opt "throughput" g.Campaign.Artifact.a_series with
    | None -> Alcotest.fail "missing aggregated series"
    | Some agg ->
      (* accumulate then scale by 1/runs *)
      Alcotest.(check (array (float 1e-12)))
        "counts" [| 2.; 3. |] agg.Campaign.Cell_result.s_counts;
      Alcotest.(check (array (float 1e-12)))
        "sums" [| 20.; 30. |] agg.Campaign.Cell_result.s_sums)
  | gs -> Alcotest.failf "expected 1 aggregate, got %d" (List.length gs)

(* ---------- artifact round-trip and validation ---------- *)

let params =
  {
    Campaign.Artifact.mode = "quick";
    rows = 7;
    cols = 7;
    degrees = [ 3; 4 ];
    runs = 2;
    seed = 1;
    rate_pps = 100.;
    warmup = 70.;
    sim_end = 220.;
  }

let fixture_artifact ?timing () =
  Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123" ?timing
    ~include_series:false params
    [
      cell ~seed:1 ~drops:1 ();
      cell ~seed:2 ~drops:2 ();
      cell ~degree:4 ~seed:1 ~drops:3 ();
      cell ~degree:4 ~seed:2 ~drops:5 ();
    ]

let test_artifact_json_roundtrip () =
  let a = fixture_artifact () in
  match Campaign.Artifact.of_json (Campaign.Artifact.to_json a) with
  | Error e -> Alcotest.fail e
  | Ok b ->
    Alcotest.(check string)
      "same canonical bytes"
      (Campaign.Artifact.canonical_string a)
      (Campaign.Artifact.canonical_string b)

let test_artifact_nan_roundtrip () =
  let a =
    Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123"
      ~include_series:false params
      [ cell ~seed:1 ~drops:1 ~conv:Float.nan () ]
  in
  match Campaign.Artifact.of_json (Campaign.Artifact.to_json a) with
  | Error e -> Alcotest.fail e
  | Ok b -> (
    match b.Campaign.Artifact.cells with
    | [ c ] ->
      Alcotest.(check bool)
        "nan survives as nan" true
        (Float.is_nan c.Campaign.Cell_result.fwd_convergence)
    | _ -> Alcotest.fail "expected 1 cell")

let test_artifact_file_roundtrip () =
  let a = fixture_artifact () in
  let path = Filename.temp_file "campaign" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Campaign.Artifact.write ~path a;
      match Campaign.Artifact.read ~path with
      | Error e -> Alcotest.fail e
      | Ok b ->
        Alcotest.(check string)
          "identical including timing"
          (Campaign.Artifact.to_string a)
          (Campaign.Artifact.to_string b))

let test_artifact_v4_axes () =
  let schema_of a =
    match
      Option.bind
        (Obs.Json.member "schema_version" (Campaign.Artifact.to_json a))
        Obs.Json.to_int
    with
    | Some v -> v
    | None -> Alcotest.fail "artifact without schema_version"
  in
  (* An axes-free artifact keeps stamping v3, so regenerating committed
     pre-v4 artifacts still diffs byte-identical. *)
  Alcotest.(check int) "axes-free artifacts stay v3" 3
    (schema_of (fixture_artifact ()));
  let ax d = [ ("schedule", "flap"); ("frr", "on"); ("mesh_degree", d) ] in
  let a =
    Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123"
      ~include_series:false params
      [
        cell ~seed:1 ~drops:1 ~axes:(ax "3") ();
        cell ~seed:2 ~drops:2 ~axes:(ax "3") ();
        cell ~degree:4 ~seed:1 ~drops:3 ~axes:(ax "4") ();
      ]
  in
  Alcotest.(check int) "axes promote the artifact to v4" 4 (schema_of a);
  Alcotest.(check (list string))
    "v4 artifact validates" []
    (Campaign.Artifact.validate (Campaign.Artifact.to_json a));
  match Campaign.Artifact.of_json (Campaign.Artifact.to_json a) with
  | Error e -> Alcotest.fail e
  | Ok b ->
    Alcotest.(check string)
      "axes round-trip bytes"
      (Campaign.Artifact.canonical_string a)
      (Campaign.Artifact.canonical_string b);
    (match b.Campaign.Artifact.cells with
    | c :: _ ->
      Alcotest.(check (list (pair string string)))
        "cell axes preserved" (ax "3") c.Campaign.Cell_result.axes
    | [] -> Alcotest.fail "no cells");
    (match b.Campaign.Artifact.aggregates with
    | g :: _ ->
      Alcotest.(check (list (pair string string)))
        "aggregate inherits its group's axes" (ax "3")
        g.Campaign.Artifact.a_axes
    | [] -> Alcotest.fail "no aggregates")

let test_validate_accepts_fixture () =
  Alcotest.(check (list string))
    "no violations" []
    (Campaign.Artifact.validate (Campaign.Artifact.to_json (fixture_artifact ())))

let test_validate_catches_corruption () =
  let violations mutate =
    let j = Campaign.Artifact.to_json (fixture_artifact ()) in
    Campaign.Artifact.validate (mutate j)
  in
  let replace key v = function
    | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | j -> j
  in
  let drop key = function
    | Obs.Json.Obj fields -> Obs.Json.Obj (List.filter (fun (k, _) -> k <> key) fields)
    | j -> j
  in
  Alcotest.(check bool)
    "future schema version" true
    (violations (replace "schema_version" (Obs.Json.Int 99)) <> []);
  Alcotest.(check bool)
    "wrong kind" true
    (violations (replace "kind" (Obs.Json.String "nonsense")) <> []);
  Alcotest.(check bool)
    "missing cells" true
    (violations (drop "cells") <> []);
  Alcotest.(check bool)
    "missing params" true
    (violations (drop "params") <> []);
  (* Duplicate a cell: validation must flag both the duplicate key and the
     aggregate runs-vs-cells inconsistency. *)
  let dup = function
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "cells", Obs.Json.List (c :: rest) ->
               ("cells", Obs.Json.List (c :: c :: rest))
             | kv -> kv)
           fields)
    | j -> j
  in
  Alcotest.(check bool) "duplicate cell key" true (violations dup <> [])

(* ---------- determinism under parallelism ---------- *)

(* A real (if tiny) campaign: DBF over 2 degrees x 2 seeds on the quick
   timeline, run sequentially and on 3 workers. The merged artifacts must be
   byte-identical. *)
let test_campaign_jobs_invariance () =
  let section =
    Campaign.Sections.grid ~name:"test-grid"
      ~engines:[ Convergence.Engine_registry.dbf ]
      ()
  in
  let sweep =
    Convergence.Experiments.(scale ~runs:2 ~degrees:[ 3; 4 ] quick_sweep)
  in
  let run jobs = Campaign.Driver.run ~jobs ~mode:"quick" sweep section in
  let a = run 1 and b = run 3 in
  Alcotest.(check string)
    "canonical bytes equal"
    (Campaign.Artifact.canonical_string a)
    (Campaign.Artifact.canonical_string b);
  (match (a.Campaign.Artifact.timing, b.Campaign.Artifact.timing) with
  | Some ta, Some tb ->
    Alcotest.(check int) "jobs recorded (seq)" 1 ta.Campaign.Artifact.t_jobs;
    Alcotest.(check int) "jobs recorded (par)" 3 tb.Campaign.Artifact.t_jobs
  | _ -> Alcotest.fail "timing missing");
  Alcotest.(check (list string))
    "fixture validates" []
    (Campaign.Artifact.validate (Campaign.Artifact.to_json a));
  Alcotest.(check (list Alcotest.reject)) "no diff" []
    (List.map (fun _ -> ()) (Campaign.Diff.artifacts a b))

(* ---------- byte-identity of quick-mode fig3 rows ---------- *)

let fig3_fixture_path = "fixtures/fig3_quick_rows.jsonl"

(* The full quick-mode fig3 campaign, row by row, against a committed
   fixture. Together with the golden traces this pins the engine's observable
   behavior: any change to event ordering, float arithmetic, or RNG
   consumption shows up as a row diff here. Regenerate (after an intentional
   behavior change) with:
     FIG3_FIXTURE_REGEN=<absolute test dir>/fixtures dune test test/test_campaign.exe *)
let test_fig3_quick_rows_fixture () =
  let section =
    match Campaign.Sections.find "fig3" with
    | Some s -> s
    | None -> Alcotest.fail "fig3 section missing"
  in
  let sweep =
    Campaign.Sections.sweep_for section ~full:false
      Convergence.Experiments.quick_sweep
  in
  let artifact = Campaign.Driver.run ~jobs:2 ~mode:"quick" sweep section in
  let rows =
    List.map
      (fun c ->
        Obs.Json.to_string (Campaign.Cell_result.to_json ~include_series:false c))
      artifact.Campaign.Artifact.cells
  in
  let actual = String.concat "\n" rows ^ "\n" in
  match Sys.getenv_opt "FIG3_FIXTURE_REGEN" with
  | Some dir ->
    let dir = if dir = "1" then Filename.dirname fig3_fixture_path else dir in
    let target = Filename.concat dir (Filename.basename fig3_fixture_path) in
    Rcutil.Atomic_file.write_string ~path:target actual;
    Alcotest.failf "regenerated %s (%d rows); review and commit it" target
      (List.length rows)
  | None ->
    let ic = open_in_bin fig3_fixture_path in
    let expected =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if String.equal expected actual then ()
    else begin
      let el = String.split_on_char '\n' expected in
      let al = String.split_on_char '\n' actual in
      let rec first_diff i = function
        | e :: es, a :: as_ ->
          if String.equal e a then first_diff (i + 1) (es, as_) else (i, e, a)
        | e :: _, [] -> (i, e, "<rows ended>")
        | [], a :: _ -> (i, "<fixture ended>", a)
        | [], [] -> (i, "", "")
      in
      let line, e, a = first_diff 1 (el, al) in
      Alcotest.failf
        "fig3 quick rows diverge from %s at row %d@.  fixture: %s@.  actual: \
         %s@.(FIG3_FIXTURE_REGEN to regenerate after an intentional change)"
        fig3_fixture_path line e a
    end

(* ---------- diff ---------- *)

let test_diff_ignores_timing_and_sha () =
  let timing =
    { Campaign.Artifact.t_jobs = 8; t_wall_s = 1.23; t_exec = None; t_cells = [] }
  in
  let a = fixture_artifact () in
  let b = { (fixture_artifact ~timing ()) with Campaign.Artifact.git_sha = "beef456" } in
  Alcotest.(check int) "no entries" 0 (List.length (Campaign.Diff.artifacts a b))

let test_diff_flags_regression () =
  let a = fixture_artifact () in
  let corrupt =
    Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123"
      ~include_series:false params
      [
        cell ~seed:1 ~drops:1 ();
        cell ~seed:2 ~drops:7 ();
        (* was 2: a regression *)
        cell ~degree:4 ~seed:1 ~drops:3 ();
        cell ~degree:4 ~seed:2 ~drops:5 ();
      ]
  in
  let entries = Campaign.Diff.artifacts a corrupt in
  Alcotest.(check bool) "flagged" true (entries <> []);
  let mentions_cell =
    List.exists
      (function Campaign.Diff.Cell_metric _ -> true | _ -> false)
      entries
  in
  let mentions_aggregate =
    List.exists
      (function Campaign.Diff.Aggregate_metric _ -> true | _ -> false)
      entries
  in
  Alcotest.(check bool) "cell-level entry" true mentions_cell;
  Alcotest.(check bool) "aggregate-level entry" true mentions_aggregate

let test_diff_missing_cell_and_params () =
  let a = fixture_artifact () in
  let b =
    Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123"
      ~include_series:false
      { params with Campaign.Artifact.runs = 1 }
      [ cell ~seed:1 ~drops:1 (); cell ~degree:4 ~seed:1 ~drops:3 () ]
  in
  let entries = Campaign.Diff.artifacts a b in
  Alcotest.(check bool)
    "params entry" true
    (List.exists (function Campaign.Diff.Params _ -> true | _ -> false) entries);
  Alcotest.(check bool)
    "missing-cell entry" true
    (List.exists
       (function Campaign.Diff.Missing_cell _ -> true | _ -> false)
       entries)

let test_diff_tolerance () =
  let a = fixture_artifact () in
  let b =
    Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123"
      ~include_series:false params
      [
        cell ~seed:1 ~drops:1 ~conv:1.5000001 ();
        cell ~seed:2 ~drops:2 ();
        cell ~degree:4 ~seed:1 ~drops:3 ();
        cell ~degree:4 ~seed:2 ~drops:5 ();
      ]
  in
  Alcotest.(check bool)
    "exact diff sees it" true
    (Campaign.Diff.artifacts a b <> []);
  Alcotest.(check int)
    "tolerant diff does not" 0
    (List.length (Campaign.Diff.artifacts ~tol:1e-3 a b))

(* ---------- windowed series extraction ---------- *)

let test_windowed_slices_and_normalizes () =
  let s = Dessim.Series.create ~start:0. ~width:1. ~buckets:10 in
  for i = 0 to 9 do
    Dessim.Series.add s ~time:(float_of_int i +. 0.5) (float_of_int i)
  done;
  (* warmup 4: normalized time of bucket i is i - 4; keep [0, 3]. *)
  let w = Campaign.Cell_result.windowed ~warmup:4. ~lo:0. ~hi:3. s in
  Alcotest.(check (float 1e-12)) "start" 0. w.Campaign.Cell_result.s_start;
  Alcotest.(check int) "4 buckets" 4 (Array.length w.Campaign.Cell_result.s_counts);
  Alcotest.(check (array (float 1e-12)))
    "sums are buckets 4..7" [| 4.; 5.; 6.; 7. |]
    w.Campaign.Cell_result.s_sums

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "preserves index order" `Quick test_pool_preserves_order;
          Alcotest.test_case "runs each task exactly once" `Quick
            test_pool_runs_each_task_once;
          Alcotest.test_case "empty and oversubscribed" `Quick
            test_pool_empty_and_oversubscribed;
          Alcotest.test_case "propagates lowest-index exception" `Quick
            test_pool_propagates_first_exception;
          Alcotest.test_case "default_jobs positive" `Quick test_default_jobs_positive;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "mean and population stddev" `Quick
            test_aggregate_mean_stddev;
          Alcotest.test_case "first-appearance group order" `Quick
            test_aggregate_groups_in_first_appearance_order;
          Alcotest.test_case "extras and series" `Quick test_aggregate_extras_and_series;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "json round-trip" `Quick test_artifact_json_roundtrip;
          Alcotest.test_case "v4 axes" `Quick test_artifact_v4_axes;
          Alcotest.test_case "nan round-trip" `Quick test_artifact_nan_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_artifact_file_roundtrip;
          Alcotest.test_case "validate accepts fixture" `Quick
            test_validate_accepts_fixture;
          Alcotest.test_case "validate catches corruption" `Quick
            test_validate_catches_corruption;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 3 byte-identical" `Slow
            test_campaign_jobs_invariance;
          Alcotest.test_case "fig3 quick rows match committed fixture" `Slow
            test_fig3_quick_rows_fixture;
        ] );
      ( "diff",
        [
          Alcotest.test_case "ignores timing and sha" `Quick
            test_diff_ignores_timing_and_sha;
          Alcotest.test_case "flags injected regression" `Quick
            test_diff_flags_regression;
          Alcotest.test_case "missing cell and params" `Quick
            test_diff_missing_cell_and_params;
          Alcotest.test_case "tolerance" `Quick test_diff_tolerance;
        ] );
      ( "series",
        [
          Alcotest.test_case "windowed slice normalizes time" `Quick
            test_windowed_slices_and_normalizes;
        ] );
    ]
