(* Obs.Prof: scope accounting, the disabled-mode no-op contract, Gc-delta
   sanity, and the perf blocks of schema-v3 artifacts. *)

let scope_stat name =
  match
    List.find_opt (fun s -> s.Obs.Prof.st_name = name) (Obs.Prof.stats ())
  with
  | Some s -> s
  | None -> Alcotest.failf "no stats recorded for scope %S" name

(* ---------- span accounting ---------- *)

let test_nesting_and_reentrancy () =
  Obs.Prof.set_enabled true;
  Obs.Prof.reset ();
  let outer = Obs.Prof.scope "t.outer" in
  let inner = Obs.Prof.scope "t.inner" in
  (* Nesting distinct scopes: both complete. Re-entering a live scope counts
     the call but must not close the span early or double-count time. *)
  let rec recurse s n =
    Obs.Prof.enter s;
    if n > 0 then recurse s (n - 1);
    Obs.Prof.exit s
  in
  Obs.Prof.enter outer;
  recurse inner 4;
  Obs.Prof.exit outer;
  Obs.Prof.set_enabled false;
  let o = scope_stat "t.outer" in
  let i = scope_stat "t.inner" in
  Alcotest.(check int) "outer spans" 1 o.Obs.Prof.st_count;
  Alcotest.(check int) "outer calls" 1 o.Obs.Prof.st_calls;
  Alcotest.(check int) "inner outermost spans" 1 i.Obs.Prof.st_count;
  Alcotest.(check int) "inner calls include re-entries" 5 i.Obs.Prof.st_calls;
  Alcotest.(check bool)
    "outer time covers inner" true
    (o.Obs.Prof.st_total_ns >= i.Obs.Prof.st_total_ns);
  Alcotest.(check bool) "inner measured once" true (i.Obs.Prof.st_total_ns >= 0.);
  Alcotest.(check bool)
    "mean consistent" true
    (Float.abs (o.Obs.Prof.st_mean_ns -. o.Obs.Prof.st_total_ns) < 1e-6)

let test_time_is_exception_safe () =
  Obs.Prof.set_enabled true;
  Obs.Prof.reset ();
  let s = Obs.Prof.scope "t.raises" in
  (try Obs.Prof.time s (fun () -> failwith "boom") with Failure _ -> ());
  Obs.Prof.time s ignore;
  Obs.Prof.set_enabled false;
  let st = scope_stat "t.raises" in
  Alcotest.(check int) "both spans closed" 2 st.Obs.Prof.st_count

let test_unbalanced_exit_ignored () =
  Obs.Prof.set_enabled true;
  Obs.Prof.reset ();
  let s = Obs.Prof.scope "t.unbalanced" in
  Obs.Prof.exit s;
  (* must not underflow *)
  Obs.Prof.enter s;
  Obs.Prof.exit s;
  Obs.Prof.set_enabled false;
  let st = scope_stat "t.unbalanced" in
  Alcotest.(check int) "one completed span" 1 st.Obs.Prof.st_count

let test_disabled_records_nothing () =
  Obs.Prof.set_enabled false;
  Obs.Prof.reset ();
  let s = Obs.Prof.scope "t.disabled" in
  Obs.Prof.enter s;
  Obs.Prof.exit s;
  Obs.Prof.time s ignore;
  Alcotest.(check bool)
    "no stats accumulate" true
    (List.for_all
       (fun st -> st.Obs.Prof.st_name <> "t.disabled")
       (Obs.Prof.stats ()))

(* ---------- the no-op contract on real runs ---------- *)

(* Everything a run outputs — trace records, the cell row derived from its
   metrics — must be byte-identical whether the profiler is off or on; the
   flag may only change the timing accumulators themselves. *)
let test_prof_flag_does_not_change_outputs () =
  let cfg =
    {
      Convergence.Config.default with
      rows = 5;
      cols = 5;
      send_rate_pps = 100.;
      traffic_start = 60.;
      warmup = 70.;
      failure_time = 80.;
      sim_end = 220.;
    }
  in
  let engine = Convergence.Engine_registry.rip in
  let run_once () =
    let sink, collected = Obs.Sink.memory () in
    let trace = Obs.Trace.create sink in
    let r = Convergence.Engine_registry.run ~trace cfg engine in
    Obs.Trace.close trace;
    let lines =
      List.map
        (fun rec_ ->
          (* cpu_s is honest wall measurement — nondeterministic run to run
             even with profiling off, so normalize it before comparing *)
          let rec_ =
            match rec_.Obs.Sink.event with
            | Obs.Event.Sched_stats { events; max_queue; cpu_s = _ } ->
              {
                rec_ with
                Obs.Sink.event =
                  Obs.Event.Sched_stats { events; max_queue; cpu_s = 0. };
              }
            | _ -> rec_
          in
          Obs.Json.to_string (Obs.Sink.record_to_json rec_))
        (collected ())
    in
    let row =
      Obs.Json.to_string
        (Campaign.Cell_result.to_json ~include_series:true
           (Campaign.Cell_result.of_multi r))
    in
    (lines, row)
  in
  Obs.Prof.set_enabled false;
  let lines_off, row_off = run_once () in
  Obs.Prof.set_enabled true;
  Obs.Prof.reset ();
  let lines_on, row_on = run_once () in
  Obs.Prof.set_enabled false;
  Alcotest.(check int)
    "same trace length" (List.length lines_off) (List.length lines_on);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "trace line %d differs with profiling on:\n%s\n%s" i a b)
    (List.combine lines_off lines_on);
  Alcotest.(check string) "cell row identical" row_off row_on;
  (* and the instrumented run did actually profile something *)
  Alcotest.(check bool)
    "engine scopes recorded" true
    (List.exists
       (fun st -> st.Obs.Prof.st_name = "engine.run")
       (Obs.Prof.stats ()))

(* ---------- Gc deltas ---------- *)

let test_gc_delta_accounting () =
  let keep = ref [] in
  let (), d =
    Obs.Prof.gc_delta (fun () ->
        (* ~300k words of boxed floats: 100k * (cons cell + boxed float) *)
        for i = 1 to 100_000 do
          keep := float_of_int i :: !keep
        done)
  in
  Alcotest.(check bool)
    "minor words see the allocation" true
    (d.Obs.Prof.d_minor_words +. d.Obs.Prof.d_major_words > 100_000.);
  Alcotest.(check bool)
    "collection counts non-negative" true
    (d.Obs.Prof.d_minor_collections >= 0 && d.Obs.Prof.d_major_collections >= 0);
  ignore (Sys.opaque_identity !keep);
  let (), quiet = Obs.Prof.gc_delta (fun () -> ()) in
  Alcotest.(check bool)
    "no-op allocates (almost) nothing" true
    (quiet.Obs.Prof.d_minor_words < 1_000.)

(* A list that fits in the minor heap: [Gc.quick_stat]'s minor words count
   only completed minor collections, so after an emptying [Gc.minor] they
   read 0 for it. The delta must see all 10,000 cons cells. *)
let test_gc_delta_counts_minor_heap () =
  Gc.minor ();
  let l, d = Obs.Prof.gc_delta (fun () -> List.init 10_000 Fun.id) in
  ignore (Sys.opaque_identity l);
  if d.Obs.Prof.d_minor_words < 30_000. then
    Alcotest.failf "List.init 10_000 read %.0f minor words, expected >= 30000"
      d.Obs.Prof.d_minor_words

(* ---------- scheduler counters ---------- *)

let test_scheduler_counts_skipped () =
  let s = Dessim.Scheduler.create () in
  let fired = ref 0 in
  let _ = Dessim.Scheduler.after s ~delay:1.0 (fun () -> incr fired) in
  let h = Dessim.Scheduler.after s ~delay:2.0 (fun () -> incr fired) in
  let _ = Dessim.Scheduler.after s ~delay:3.0 (fun () -> incr fired) in
  Dessim.Scheduler.cancel s h;
  Dessim.Scheduler.run s;
  Alcotest.(check int) "fired" 2 !fired;
  Alcotest.(check int) "processed" 2 (Dessim.Scheduler.events_processed s);
  Alcotest.(check int) "scheduled" 3 (Dessim.Scheduler.events_scheduled s);
  Alcotest.(check int) "skipped" 1 (Dessim.Scheduler.events_skipped s)

(* ---------- histogram quantiles ---------- *)

let test_histogram_quantiles () =
  let reg = Obs.Registry.create () in
  let bounds = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = Obs.Registry.histogram ~bounds reg "q" in
  for v = 1 to 100 do
    Obs.Registry.observe h (float_of_int v -. 0.5)
  done;
  match Obs.Registry.lookup reg "q" with
  | Some (Obs.Registry.Histogram_value { p50; p95; p99; n; _ }) ->
    Alcotest.(check int) "n" 100 n;
    Alcotest.(check (float 1e-9)) "p50 upper bound" 50. p50;
    Alcotest.(check (float 1e-9)) "p95 upper bound" 95. p95;
    Alcotest.(check (float 1e-9)) "p99 upper bound" 99. p99
  | _ -> Alcotest.fail "histogram value expected"

(* ---------- perf blocks in artifacts ---------- *)

let perf_cell ~eps ~extras_events =
  {
    Campaign.Cell_result.protocol = "RIP";
    degree = 25;
    seed = 1;
    sent = 100;
    delivered = 99;
    drops_no_route = 1;
    drops_ttl = 0;
    drops_queue = 0;
    drops_link = 0;
    looped_delivered = 0;
    looped_dropped = 0;
    ctrl_messages = 10;
    ctrl_bytes = 500;
    fwd_convergence = 1.5;
    routing_convergence = 3.0;
    transient_paths = 1;
    extras = [ ("sched_events", extras_events) ];
    axes = [];
    series = [];
    wall_s = 0.;
    perf = [ ("ns_per_event", 1e9 /. eps); ("events_per_s", eps) ];
    events = 0;
  }

let perf_params =
  {
    Campaign.Artifact.mode = "quick";
    rows = 5;
    cols = 5;
    degrees = [ 4 ];
    runs = 1;
    seed = 1;
    rate_pps = 100.;
    warmup = 70.;
    sim_end = 220.;
  }

let perf_artifact ?(eps = 250_000.) ?(extras_events = 50_000.) () =
  let cell = perf_cell ~eps ~extras_events in
  let timing =
    {
      Campaign.Artifact.t_jobs = 1;
      t_wall_s = 1.0;
      t_exec = None;
      t_cells =
        [
          {
            Campaign.Artifact.ct_protocol = "RIP";
            ct_degree = 25;
            ct_seed = 1;
            ct_wall_s = 0.5;
            ct_perf = cell.Campaign.Cell_result.perf;
          };
        ];
    }
  in
  Campaign.Artifact.build ~section:"perf" ~git_sha:"test" ~timing
    ~include_series:false perf_params [ cell ]

let test_perf_artifact_roundtrip () =
  let a = perf_artifact () in
  let j = Campaign.Artifact.to_json a in
  Alcotest.(check (list string)) "validates" [] (Campaign.Artifact.validate j);
  match Campaign.Artifact.of_json j with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok b -> (
    match b.Campaign.Artifact.timing with
    | Some { Campaign.Artifact.t_cells = [ ct ]; _ } ->
      Alcotest.(check (list (pair string (float 1e-9))))
        "perf block survives the round-trip"
        [ ("ns_per_event", 4000.); ("events_per_s", 250_000.) ]
        ct.Campaign.Artifact.ct_perf
    | _ -> Alcotest.fail "timing lost in round-trip")

let test_perf_drift_detection () =
  let base = perf_artifact () in
  (* Timing drift (a slower machine) must NOT show up in a diff... *)
  let slower = perf_artifact ~eps:100_000. () in
  Alcotest.(check int)
    "machine-speed drift invisible to diff" 0
    (List.length (Campaign.Diff.artifacts ~tol:0. base slower));
  (* ...while drift in a deterministic perf extra must, subject to the
     tolerance band. *)
  let drifted = perf_artifact ~extras_events:50_100. () in
  Alcotest.(check bool)
    "event-count drift detected" true
    (Campaign.Diff.artifacts ~tol:0. base drifted <> []);
  Alcotest.(check int)
    "tolerance band absorbs small drift" 0
    (List.length (Campaign.Diff.artifacts ~tol:200. base drifted))

let () =
  Alcotest.run "prof"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and re-entrancy" `Quick
            test_nesting_and_reentrancy;
          Alcotest.test_case "time is exception-safe" `Quick
            test_time_is_exception_safe;
          Alcotest.test_case "unbalanced exit ignored" `Quick
            test_unbalanced_exit_ignored;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "no-op contract",
        [
          Alcotest.test_case "outputs identical with prof on" `Quick
            test_prof_flag_does_not_change_outputs;
        ] );
      ( "gc",
        [
          Alcotest.test_case "delta accounting" `Quick test_gc_delta_accounting;
          Alcotest.test_case "minor words include the minor heap" `Quick
            test_gc_delta_counts_minor_heap;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "skipped-event counter" `Quick
            test_scheduler_counts_skipped;
        ] );
      ( "histogram",
        [ Alcotest.test_case "p50/p95/p99" `Quick test_histogram_quantiles ] );
      ( "perf artifacts",
        [
          Alcotest.test_case "json round-trip" `Quick test_perf_artifact_roundtrip;
          Alcotest.test_case "drift and tolerance" `Quick
            test_perf_drift_detection;
        ] );
    ]
