(* The repository benchmark. BENCHMARK.json at the root describes it;
   perfbench/run.sh builds this program and runs it from the checkout root:

     sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   W is paper-mesh, topo-256 or checked-churn; [all] runs the three from one
   process and [selftest] checks the failure accounting at a tiny size.

   With --trace 0 the workload runs again and again for S seconds (at least
   three passes) with profiling off, and the end-to-end metrics are the
   medians over passes, times scaled to a fixed host speed (see
   [reference_nominal_s]). With --trace 1 it runs once untraced and twice with
   Obs.Prof on, and reports per-layer metrics. Either way every cell is
   checked, the counts the simulation produces must repeat exactly between
   passes, and the last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   The exit code is 1 when a check failed. *)

module W = Workloads
module A = Campaign.Artifact
module CR = Campaign.Cell_result

(* ---------- metric table ---------- *)

(* Each per-layer metric with the end-to-end metric it should move and the
   workloads where its layer was planned to be heavy / light. A layer that
   does not run in a workload reports 0 there. *)
let layer_specs =
  [
    ("engine.events", "count", "wall_s", "paper-mesh / topo-256");
    ("engine.events_per_s", "1/s", "wall_s", "paper-mesh / topo-256");
    ("engine.loop_self_s", "s", "wall_s", "paper-mesh / topo-256");
    ("net.topology_build_s", "s", "setup_s, wall_s", "topo-256, checked-churn / paper-mesh");
    ("core.data_forwards", "count", "wall_s", "paper-mesh / topo-256");
    ("core.forward_s", "s", "wall_s", "paper-mesh / topo-256");
    ("core.forward_ns", "ns", "wall_s", "paper-mesh / topo-256");
    ("core.cell_outside_loop_s", "s", "wall_s", "checked-churn / topo-256");
    ("proto.ctrl_messages", "count", "wall_s", "topo-256 / paper-mesh");
    ("proto.timer_fires", "count", "wall_s", "topo-256 / paper-mesh");
    ("proto.on_message_s", "s", "wall_s", "topo-256 / paper-mesh");
    ("proto.on_message_us", "us", "wall_s", "topo-256 / paper-mesh");
    ("proto.timer_s", "s", "wall_s", "topo-256 / paper-mesh");
    ("proto.bgp.on_message_s", "s", "wall_s", "topo-256 / paper-mesh");
    ("proto.dv.on_message_s", "s", "wall_s", "topo-256 / paper-mesh");
    ("gc.minor_words_per_event", "words", "wall_s", "topo-256 / paper-mesh");
    ("gc.promoted_words", "words", "wall_s, peak_rss_mb", "topo-256 / paper-mesh");
    ("gc.major_collections", "count", "wall_s, peak_rss_mb", "topo-256 / paper-mesh");
    ("gc.top_heap_mb", "MB", "peak_rss_mb", "topo-256 / paper-mesh");
    ("fault.rtx_retransmissions", "count", "wall_s", "checked-churn / others");
    ("fault.injected_ctrl_drops", "count", "wall_s", "checked-churn / others");
    ("fault.retx_ratio", "fraction", "wall_s", "checked-churn / others");
    ("frr.installs", "count", "wall_s", "checked-churn / others");
    ("frr.forwards", "count", "wall_s", "checked-churn / others");
    ("frr.exhausted", "count", "wall_s", "checked-churn / others");
    ("frr.saved_ratio", "fraction", "wall_s", "checked-churn / others");
    ("obs.sink_s", "s", "wall_s", "checked-churn / paper-mesh");
    ("obs.sink_ns", "ns", "wall_s", "checked-churn / paper-mesh");
    ("check.oracle_s", "s", "wall_s", "checked-churn, topo-256 / paper-mesh");
    ("check.oracle_mismatches", "count", "fail_ratio", "checked-churn, topo-256 / paper-mesh");
    ("check.monitor_violations", "count", "fail_ratio", "checked-churn, topo-256 / paper-mesh");
    ("campaign.busy_frac", "fraction", "wall_s", "checked-churn / paper-mesh, topo-256");
    ("campaign.overhead_s", "s", "wall_s", "checked-churn / paper-mesh, topo-256");
    ("campaign.cell_p50_s", "s", "wall_s", "checked-churn / paper-mesh, topo-256");
    ("campaign.cell_p90_s", "s", "wall_s", "checked-churn / paper-mesh, topo-256");
    ("campaign.cpu_s", "s", "wall_s", "checked-churn / paper-mesh, topo-256");
    ("campaign.spawns", "count", "wall_s", "checked-churn / paper-mesh, topo-256");
    ("campaign.restarts", "count", "wall_s, fail_ratio", "checked-churn / paper-mesh, topo-256");
    ("campaign.quarantined", "count", "fail_ratio", "checked-churn / paper-mesh, topo-256");
    ("cache.store_ms", "ms", "wall_s", "checked-churn / topo-256");
    ("cache.find_ms", "ms", "wall_s", "checked-churn / topo-256");
    ("cache.hit_ratio", "fraction", "wall_s", "checked-churn / topo-256");
    ("campaign.warm_rerun_s", "s", "wall_s", "checked-churn / topo-256");
    ("campaign.merge_s", "s", "wall_s", "checked-churn / topo-256");
    ("artifact.write_s", "s", "wall_s", "checked-churn / topo-256");
    ("trace.overhead_frac", "fraction", "wall_s", "every workload");
  ]

let e2e_specs = [ ("wall_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let unit_of specs name =
  match List.find_opt (fun (n, _) -> n = name) specs with
  | Some (_, u) -> u
  | None -> invalid_arg ("perfbench: metric without a spec: " ^ name)

let layer_units = List.map (fun (n, u, _, _) -> (n, u)) layer_specs

(* ---------- output ---------- *)

let finite v = if Float.is_finite v then v else 0.

let ratio a b = if b > 0. then a /. b else 0.

let result_json ~correct ~attempted ~failed metrics specs =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool correct);
      ("attempted", Obs.Json.Int attempted);
      ("failed", Obs.Json.Int failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Obs.Json.Obj
                   [
                     ("value", Obs.Json.Float (finite v));
                     ("unit", Obs.Json.String (unit_of specs name));
                   ] ))
             metrics) );
    ]

let same_names metrics specs =
  List.map fst metrics = List.map fst specs

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p else [ p ])
  in
  match files "lib" @ files "perfbench" with
  | [] -> "unknown"
  | paths ->
    let b = Buffer.create 4096 in
    List.iter
      (fun p ->
        Buffer.add_string b p;
        Buffer.add_string b (Digest.to_hex (Digest.file p)))
      paths;
    Digest.to_hex (Digest.string (Buffer.contents b))

let provenance ~w ~seed ~seconds ~trace ~passes ~cells =
  Obs.Json.Obj
    [
      ("git_sha", Obs.Json.String (Lazy.force W.git_sha));
      ("source_digest", Obs.Json.String (source_digest ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("cpu", Obs.Json.String (Measure.cpu_model ()));
      ("nproc", Obs.Json.Int (Measure.nproc ()));
      ("workload", Obs.Json.String w.W.name);
      ("seed", Obs.Json.Int seed);
      ("seconds", Obs.Json.Int seconds);
      ("trace", Obs.Json.Bool trace);
      ("passes", Obs.Json.Int passes);
      ("cells_per_pass", Obs.Json.Int cells);
      ( "workers",
        Obs.Json.Int (match w.W.backend with W.In_process -> 1 | W.Proc n -> n) );
      ( "backend",
        Obs.Json.String
          (match w.W.backend with W.In_process -> "domains" | W.Proc _ -> "proc") );
    ]

(* ---------- exact-count gate ---------- *)

(* Every pair of passes must agree on every count both carry and on the
   merged artifact's canonical bytes. *)
let compare_counts ~label (a : (string * float) list * string)
    (b : (string * float) list * string) =
  let ca, da = a and cb, db = b in
  let diffs =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k cb with
        | Some v' when v' <> v ->
          Some (Printf.sprintf "%s: %.0f vs %.0f" k v v')
        | _ -> None)
      ca
  in
  let diffs = if da <> db then "artifact canonical digest" :: diffs else diffs in
  List.map (fun d -> Printf.sprintf "exact counts differ (%s): %s" label d) diffs

let pass_counts p = (W.counts p, p.W.digest)

let minor_words (p : W.pass) =
  List.fold_left (fun acc d -> acc +. d.Obs.Prof.d_minor_words) 0. p.W.gcs

(* ---------- one workload ---------- *)

type outcome = {
  metrics : (string * float) list;
  correct : bool;
  attempted : int;
  failed : int;
}

let work_dir name = Filename.concat ".perfbench" (Printf.sprintf "work-%d-%s" (Unix.getpid ()) name)

let print_failures ~w ~seed ~seconds ~trace failures =
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  if failures <> [] then
    Printf.printf "repro: sh perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d\n"
      w.W.name seed seconds (if trace then 1 else 0)

let accounting passes =
  let attempted =
    List.fold_left
      (fun acc (p : W.pass) -> acc + Array.length p.W.cells + List.length p.W.quarantined)
      0 passes
  in
  let failed = List.fold_left (fun acc (p : W.pass) -> acc + p.W.failed_cells) 0 passes in
  (attempted, failed)

let report_fail_ratio ~attempted ~failed =
  Printf.printf "  %-26s %.6g fraction (%d of %d cells: quarantined or failing a check)\n"
    "fail_ratio" (ratio (float_of_int failed) (float_of_int attempted)) failed attempted

(* The median pass. Where cells run one after another in this process it is
   assembled cell by cell: each cell's median wall over the passes, plus the
   median time the passes spent outside cells. Shared hosts slow down in
   bursts of seconds; a burst lands on different cells in different passes,
   so per-cell medians filter it where the median of three or four pass
   totals would not. Worker processes overlap cells, so there the median
   pass wall is taken as is. *)
let median_wall w (passes : W.pass list) =
  let pass_walls = List.map (fun (p : W.pass) -> p.W.wall_s) passes in
  match w.W.backend with
  | W.Proc _ -> Measure.median pass_walls
  | W.In_process ->
    let cell_walls (p : W.pass) =
      List.map
        (fun c -> ((c.A.ct_protocol, c.A.ct_degree, c.A.ct_seed), c.A.ct_wall_s))
        p.W.timing.A.t_cells
    in
    let outside (p : W.pass) = p.W.wall_s -. Measure.sum (List.map snd (cell_walls p)) in
    let cell_median key =
      Measure.median (List.filter_map (fun p -> List.assoc_opt key (cell_walls p)) passes)
    in
    Measure.median (List.map outside passes)
    +. Measure.sum (List.map (fun (key, _) -> cell_median key) (cell_walls (List.hd passes)))

(* End-to-end times are reported at a fixed host speed: the measured time
   times [reference_nominal_s] over the run's median timing of
   [Measure.reference_work], sampled 9 times before the first pass and 5
   times after each one, so that a short burst cannot set it. The raw times
   are printed beside them. *)
let reference_nominal_s = 0.04

(* End-to-end: passes back to back for [seconds], at least three; medians. *)
let run_untraced w ~seed ~seconds =
  let dir = work_dir w.W.name in
  let start = Measure.now () in
  let references = ref (Measure.reference_samples 9) in
  (* Set-up is timed apart from the passes, in the still-fresh process: 21
     samples, each covering enough back-to-back set-ups to last two
     milliseconds (one set-up of the in-process workloads takes microseconds,
     too short to time steadily with one pair of clock readings). *)
  let setup_samples =
    let dir = Filename.concat dir "setup" in
    ignore (W.setup_sample w ~dir ~seed ~k:1);
    let one = W.setup_sample w ~dir ~seed ~k:1 in
    let k = max 1 (int_of_float (Float.ceil (2e-3 /. one))) in
    List.init 21 (fun _ -> W.setup_sample w ~dir ~seed ~k)
  in
  let rec loop acc =
    let n = List.length acc in
    let elapsed = Measure.now () -. start in
    let next =
      Measure.median (List.map (fun (p : W.pass) -> p.W.setup_s +. p.W.wall_s) acc)
    in
    if n >= 3 && elapsed +. next > float_of_int seconds then List.rev acc
    else begin
      let p =
        W.run_pass w ~dir:(Filename.concat dir (string_of_int n)) ~seed
          ~backend:w.W.backend ~time_cache:false
      in
      references := Measure.reference_samples 5 @ !references;
      loop (p :: acc)
    end
  in
  let passes = loop [] in
  Measure.rm_rf dir;
  let walls = List.map (fun (p : W.pass) -> p.W.wall_s) passes in
  let reference = Measure.median !references in
  let at_reference_speed t = t *. reference_nominal_s /. reference in
  let raw_wall = median_wall w passes and raw_setup = Measure.median setup_samples in
  let first = List.hd passes in
  (* Peak memory is what one run of the workload costs: the first pass's.
     Later passes in the same process only add heap fragmentation. *)
  let peak = Float.max first.W.harness_rss_mb first.W.worker_rss_mb in
  let gate =
    List.concat_map (fun (p : W.pass) -> p.W.failures) passes
    @ List.concat
        (List.mapi
           (fun i p ->
             compare_counts ~label:(Printf.sprintf "pass 1 vs pass %d" (i + 2))
               (pass_counts first) (pass_counts p))
           (List.tl passes))
    @
    (* The first pass also pays one-time initialisation; from the second on,
       in-process allocation must repeat to the word. *)
    match List.tl passes with
    | second :: rest when w.W.backend = W.In_process ->
      List.filter_map
        (fun p ->
          if minor_words p <> minor_words second then
            Some
              (Printf.sprintf "exact counts differ: gc minor words %.0f vs %.0f"
                 (minor_words second) (minor_words p))
          else None)
        rest
    | _ -> []
  in
  let attempted, failed = accounting passes in
  Printf.printf "workload %s seed %d: %d passes of %d cells, untraced\n" w.W.name seed
    (List.length passes)
    (Array.length first.W.cells + List.length first.W.quarantined);
  Printf.printf "  host reference loop %.4g s (median of %d; nominal %.4g s)\n" reference
    (List.length !references) reference_nominal_s;
  Printf.printf
    "  %-26s %.6g s at reference speed; %.6g s measured (median of %d passes%s; \
     pass walls %.6g to %.6g)\n"
    "wall_s" (at_reference_speed raw_wall) raw_wall (List.length walls)
    (if w.W.backend = W.In_process then ", cell by cell" else "")
    (List.fold_left Float.min infinity walls)
    (List.fold_left Float.max 0. walls);
  List.iteri
    (fun i (p : W.pass) ->
      Printf.printf "    pass %d: wall %.4f s, cpu %.4f s, set-up %.3g s, %.0f events\n" (i + 1)
        p.W.wall_s p.W.cpu_s p.W.setup_s (List.assoc "engine.events" (W.counts p)))
    passes;
  Printf.printf "  %-26s %.6g s at reference speed; %.6g s measured (median of %d)\n"
    "setup_s" (at_reference_speed raw_setup) raw_setup (List.length setup_samples);
  Printf.printf "  %-26s %.6g MB (harness and workers, first pass)\n" "peak_rss_mb" peak;
  report_fail_ratio ~attempted ~failed;
  print_failures ~w ~seed ~seconds ~trace:false gate;
  print_endline
    (Obs.Json.to_string
       (provenance ~w ~seed ~seconds ~trace:false ~passes:(List.length passes)
          ~cells:(Array.length first.W.cells + List.length first.W.quarantined)));
  {
    metrics =
      [
        ("wall_s", at_reference_speed raw_wall);
        ("setup_s", at_reference_speed raw_setup);
        ("peak_rss_mb", peak);
      ];
    correct = gate = [];
    attempted;
    failed;
  }

(* ---------- traced ---------- *)

let prof_sum stats pred =
  List.fold_left
    (fun (s, n) (st : Obs.Prof.stat) ->
      if pred st.Obs.Prof.st_name then
        (s +. (st.Obs.Prof.st_total_ns /. 1e9), n +. float_of_int st.Obs.Prof.st_calls)
      else (s, n))
    (0., 0.) stats

let scope name n = n = name

let has_affixes ~prefix ~suffix n =
  String.starts_with ~prefix n && String.ends_with ~suffix n

let on_message = has_affixes ~prefix:"proto." ~suffix:".on_message"
let timer = has_affixes ~prefix:"proto." ~suffix:".timer"

(* Call counts of the scopes whose calls are simulation events. *)
let prof_counts stats =
  List.filter_map
    (fun (st : Obs.Prof.stat) ->
      let n = st.Obs.Prof.st_name in
      if n = "engine.forward" || n = "trace.sink" || on_message n || timer n then
        Some ("prof " ^ n, float_of_int st.Obs.Prof.st_calls)
      else None)
    stats

let traced_pass w ~dir ~seed =
  Obs.Prof.reset ();
  Measure.start_recording ();
  Obs.Prof.set_enabled true;
  let pass =
    Fun.protect
      ~finally:(fun () -> Obs.Prof.set_enabled false)
      (fun () ->
        let p = W.run_pass w ~dir ~seed ~backend:W.In_process ~time_cache:true in
        w.W.graphs ~seed;
        p)
  in
  let spans = Measure.stop_recording () in
  (pass, Obs.Prof.stats (), spans)

let layer_metrics ~(u : W.pass) ~top_heap_words ~(t : W.pass) ~stats ~spans ~(e : W.pass)
    ~overhead =
  let sum_cells f = Array.fold_left (fun acc c -> acc +. f c) 0. t.W.cells in
  let events = sum_cells (fun c -> float_of_int c.CR.events) in
  let run_s, _ = prof_sum stats (scope "engine.run") in
  let fwd_s, fwd_n = prof_sum stats (scope "engine.forward") in
  let msg_s, msg_n = prof_sum stats on_message in
  let tim_s, tim_n = prof_sum stats timer in
  let sink_s, sink_n = prof_sum stats (scope "trace.sink") in
  let oracle_s, _ =
    prof_sum stats (fun n -> n = "check.oracle" || n = "check.oracle_frr")
  in
  let span_n name =
    float_of_int (List.length (List.filter (fun (s, _) -> s.Measure.sp_name = name) spans))
  in
  let u_cell_wall =
    Measure.sum (List.map (fun c -> c.A.ct_wall_s) u.W.timing.A.t_cells)
  in
  let u_events = Array.fold_left (fun acc c -> acc +. float_of_int c.CR.events) 0. u.W.cells in
  let gc f = List.fold_left (fun acc d -> acc +. f d) 0. u.W.gcs in
  let ctrl = sum_cells (fun c -> float_of_int c.CR.ctrl_messages) in
  let x = W.extra_sum t in
  let frr_fwd = x "frr_forwards" and frr_exh = x "frr_exhausted" in
  let cell_walls = List.map (fun c -> c.A.ct_wall_s) e.W.timing.A.t_cells in
  let jobs = float_of_int e.W.timing.A.t_jobs and e_wall = e.W.timing.A.t_wall_s in
  let exec f = match e.W.timing.A.t_exec with Some x -> float_of_int (f x) | None -> 0. in
  let hits, misses = t.W.cache_stats in
  let per_call name scale =
    ratio (Measure.span_total name spans) (span_n name) *. scale
  in
  [
    ("engine.events", events);
    ("engine.events_per_s", ratio u_events u_cell_wall);
    (* engine.run less the handler spans inside it: scheduler, links, packet
       generation and accounting; sink spans sit inside the handlers. *)
    ("engine.loop_self_s", run_s -. fwd_s -. msg_s -. tim_s);
    ("net.topology_build_s", Measure.span_total "topology" spans);
    ("core.data_forwards", fwd_n);
    ("core.forward_s", fwd_s);
    ("core.forward_ns", ratio fwd_s fwd_n *. 1e9);
    ("core.cell_outside_loop_s", Measure.span_total "cell" spans -. run_s -. oracle_s);
    ("proto.ctrl_messages", ctrl);
    ("proto.timer_fires", tim_n);
    ("proto.on_message_s", msg_s);
    ("proto.on_message_us", ratio msg_s msg_n *. 1e6);
    ("proto.timer_s", tim_s);
    ("proto.bgp.on_message_s", fst (prof_sum stats (scope "proto.BGP.on_message")));
    ( "proto.dv.on_message_s",
      fst
        (prof_sum stats (fun n ->
             n = "proto.RIP.on_message" || n = "proto.DBF.on_message")) );
    ("gc.minor_words_per_event", ratio (gc (fun d -> d.Obs.Prof.d_minor_words)) u_events);
    ("gc.promoted_words", gc (fun d -> d.Obs.Prof.d_promoted_words));
    ("gc.major_collections", gc (fun d -> float_of_int d.Obs.Prof.d_major_collections));
    ( "gc.top_heap_mb",
      float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576. );
    ("fault.rtx_retransmissions", x "rtx_retransmissions");
    ("fault.injected_ctrl_drops", x "injected_ctrl_drops");
    ("fault.retx_ratio", ratio (x "rtx_retransmissions") ctrl);
    ("frr.installs", x "frr_installs");
    ("frr.forwards", frr_fwd);
    ("frr.exhausted", frr_exh);
    ("frr.saved_ratio", ratio frr_fwd (frr_fwd +. frr_exh));
    ("obs.sink_s", sink_s);
    ("obs.sink_ns", ratio sink_s sink_n *. 1e9);
    ("check.oracle_s", oracle_s);
    ("check.oracle_mismatches", x "oracle_mismatches");
    ("check.monitor_violations", x "monitor_violations");
    ("campaign.busy_frac", ratio (Measure.sum cell_walls) (jobs *. e_wall));
    ("campaign.overhead_s", e_wall -. ratio (Measure.sum cell_walls) jobs);
    ("campaign.cell_p50_s", Measure.median cell_walls);
    ( "campaign.cell_p90_s",
      if List.length cell_walls >= 100 then Measure.quantile cell_walls 0.9 else 0. );
    ("campaign.cpu_s", e.W.cpu_s);
    ("campaign.spawns", exec (fun x -> x.A.x_spawns));
    ("campaign.restarts", exec (fun x -> x.A.x_restarts));
    ("campaign.quarantined", float_of_int (List.length e.W.quarantined));
    ("cache.store_ms", per_call "cache.store" 1e3);
    ("cache.find_ms", per_call "cache.find" 1e3);
    ("cache.hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
    ("campaign.warm_rerun_s", e.W.warm_s);
    ("campaign.merge_s", Measure.span_total "merge" spans);
    ("artifact.write_s", Measure.span_total "write" spans);
    ("trace.overhead_frac", overhead);
  ]

(* Per-layer: one untraced in-process pass, then two traced ones. The
   proc-backend workload first makes an untraced pass in its own
   configuration, which supplies the campaign-layer numbers. *)
let run_traced w ~seed ~seconds =
  let dir = work_dir w.W.name in
  let sub name = Filename.concat dir name in
  let e2e =
    match w.W.backend with
    | W.Proc _ ->
      Some (W.run_pass w ~dir:(sub "proc") ~seed ~backend:w.W.backend ~time_cache:false)
    | W.In_process -> None
  in
  let u = W.run_pass w ~dir:(sub "untraced") ~seed ~backend:W.In_process ~time_cache:false in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let t1, stats1, _ = traced_pass w ~dir:(sub "traced1") ~seed in
  let t2, stats2, spans2 = traced_pass w ~dir:(sub "traced2") ~seed in
  Measure.rm_rf dir;
  let e = Option.value e2e ~default:u in
  let passes = Option.to_list e2e @ [ u; t1; t2 ] in
  let overhead = ((t1.W.wall_s +. t2.W.wall_s) /. 2. /. u.W.wall_s) -. 1. in
  let metrics =
    layer_metrics ~u ~top_heap_words ~t:t2 ~stats:stats2 ~spans:spans2 ~e ~overhead
  in
  (* Where cells also read these counters from the run's registry, the
     registry and Prof must agree. *)
  let cross =
    List.filter_map
      (fun (extra, metric) ->
        let registry = W.extra_sum t2 extra and prof = List.assoc metric metrics in
        if Array.exists (fun c -> List.mem_assoc extra c.CR.extras) t2.W.cells
           && registry <> prof
        then
          Some (Printf.sprintf "registry %s %.0f vs Prof %s %.0f" extra registry metric prof)
        else None)
      [ ("data_forwards", "core.data_forwards"); ("timer_fires", "proto.timer_fires") ]
  in
  let gate =
    List.concat_map (fun (p : W.pass) -> p.W.failures) passes
    @ compare_counts ~label:"untraced vs traced" (pass_counts u) (pass_counts t1)
    @ compare_counts ~label:"traced vs traced" (pass_counts t1) (pass_counts t2)
    @ compare_counts ~label:"traced vs traced (Prof calls)"
        (prof_counts stats1, "") (prof_counts stats2, "")
    @ (match e2e with
      | Some c -> compare_counts ~label:"proc vs in-process" (pass_counts c) (pass_counts u)
      | None -> [])
    @ cross
  in
  let attempted, failed = accounting passes in
  let spans_path =
    Filename.concat ".perfbench" (Printf.sprintf "spans-%s-seed%d.json" w.W.name seed)
  in
  Measure.mkdir_p ".perfbench";
  let prov =
    provenance ~w ~seed ~seconds ~trace:true ~passes:(List.length passes)
      ~cells:(Array.length u.W.cells + List.length u.W.quarantined)
  in
  Rcutil.Atomic_file.write_string ~path:spans_path
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("provenance", prov);
            ("spans", Obs.Json.List (List.map Measure.span_json spans2));
          ])
    ^ "\n");
  Printf.printf "workload %s seed %d: traced (%d passes; spans in %s)\n" w.W.name seed
    (List.length passes) spans_path;
  List.iter
    (fun (name, unit_, moves, heavy) ->
      Printf.printf "  %-26s %-14.6g %-8s moves %s; heavy / light in %s\n" name
        (finite (List.assoc name metrics)) unit_ moves heavy)
    layer_specs;
  let run_s = fst (prof_sum stats2 (scope "engine.run")) in
  Printf.printf
    "  shares of engine.run: forward %.1f%%, protocol handlers %.1f%%, sinks %.1f%%; \
     untraced wall %.4g s, traced %.4g / %.4g s\n"
    (100. *. ratio (List.assoc "core.forward_s" metrics) run_s)
    (100.
    *. ratio
         (List.assoc "proto.on_message_s" metrics +. List.assoc "proto.timer_s" metrics)
         run_s)
    (100. *. ratio (List.assoc "obs.sink_s" metrics) run_s)
    u.W.wall_s t1.W.wall_s t2.W.wall_s;
  if List.length e.W.timing.A.t_cells < 100 then
    Printf.printf "  campaign.cell_p90_s needs >= 100 cells; this pass has %d\n"
      (List.length e.W.timing.A.t_cells);
  report_fail_ratio ~attempted ~failed;
  print_failures ~w ~seed ~seconds ~trace:true gate;
  print_endline (Obs.Json.to_string prov);
  { metrics; correct = gate = []; attempted; failed }

(* ---------- self-test ---------- *)

(* Runs the self-test workload through both modes and checks what the
   accounting must show: per pass, 3 cells attempted, the wedged one
   quarantined and the corrupted one failing conservation, so fail_ratio is
   exactly 2/3; and both modes emit exactly the metric names and units of
   the tables above, which must also be BENCHMARK.json's when it is at
   hand. *)
let selftest ~seed ~seconds =
  let w = W.selftest in
  let un = run_untraced w ~seed ~seconds in
  let tr = run_traced w ~seed ~seconds in
  let p = w.W.prepare ~seed in
  let hang = Option.get p.W.hang in
  let corrupt = Campaign.Driver.task_key p.W.tasks.(2) in
  let problems = ref [] in
  let expect cond msg = if not cond then problems := msg :: !problems in
  List.iter
    (fun (label, (o : outcome)) ->
      expect (o.attempted > 0 && o.attempted mod 3 = 0)
        (Printf.sprintf "%s: %d cells attempted, not 3 per pass" label o.attempted);
      expect (o.failed * 3 = o.attempted * 2)
        (Printf.sprintf "%s: fail_ratio %d/%d, expected 2/3" label o.failed o.attempted);
      expect (not o.correct) (label ^ ": the gate passed cells that must fail"))
    [ ("untraced", un); ("traced", tr) ];
  expect (same_names un.metrics e2e_specs) "untraced metric names differ from the table";
  expect (same_names tr.metrics layer_units) "traced metric names differ from the table";
  (* The failing keys are the planted ones. *)
  let pass = W.run_pass w ~dir:(work_dir "selftest-keys") ~seed ~backend:W.In_process ~time_cache:false in
  Measure.rm_rf (work_dir "selftest-keys");
  expect
    (List.map A.quarantine_key pass.W.quarantined = [ hang ])
    "the wedged cell was not the one quarantined";
  expect
    (List.exists
       (fun f -> String.starts_with ~prefix:("cell " ^ W.key_string corrupt ^ ": conservation") f)
       pass.W.failures)
    "the corrupted cell did not fail its conservation check";
  (match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> print_endline "selftest: no BENCHMARK.json here; table not compared"
  | text ->
    let listed key =
      match Option.bind (Obs.Json.of_string_opt text) (Obs.Json.member key) with
      | Some (Obs.Json.List l) ->
        List.filter_map
          (fun m ->
            match
              ( Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_val,
                Option.bind (Obs.Json.member "unit" m) Obs.Json.to_string_val )
            with
            | Some n, Some u -> Some (n, u)
            | _ -> None)
          l
      | _ -> []
    in
    expect (listed "end_to_end" = e2e_specs) "BENCHMARK.json end_to_end differs from the table";
    expect (listed "per_layer" = layer_units) "BENCHMARK.json per_layer differs from the table");
  List.iter (fun m -> Printf.printf "selftest FAILED: %s\n" m) !problems;
  if !problems = [] then
    Printf.printf "selftest ok: fail_ratio %d/%d untraced, %d/%d traced; metric tables match\n"
      un.failed un.attempted tr.failed tr.attempted;
  { un with correct = !problems = [] }

(* ---------- entry points ---------- *)

let worker name seed =
  match W.find name with
  | None ->
    prerr_endline ("perfbench worker: unknown workload " ^ name);
    exit 2
  | Some w ->
    let p = w.W.prepare ~seed in
    let run_cell i =
      if i < 0 || i >= Array.length p.W.tasks then
        Error (Printf.sprintf "cell index %d out of range" i)
      else
        let t0 = Measure.now () in
        match Campaign.Driver.attempt_once p.W.tasks.(i) with
        | Ok cell ->
          Ok
            ( Measure.now () -. t0,
              { cell with CR.perf = [ ("vmhwm_mb", Measure.vmhwm_mb ()) ] } )
        | Error e -> Error e
    in
    Campaign.Proc_backend.worker ~run_cell ()

let usage () =
  prerr_endline
    "usage: main.exe --workload (paper-mesh|topo-256|checked-churn|all|selftest) \
     --seed N --seconds S --trace (0|1)";
  exit 2

let run_one w ~seed ~seconds ~trace =
  Measure.reset_peak_rss ();
  if trace then run_traced w ~seed ~seconds else run_untraced w ~seed ~seconds

let () =
  match Array.to_list Sys.argv with
  | [ _; "worker"; name; seed ] -> (
    match int_of_string_opt seed with Some s -> worker name s | None -> usage ())
  | _ :: args ->
    let rec parse acc = function
      | flag :: v :: rest when String.starts_with ~prefix:"--" flag ->
        parse ((flag, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get flag conv =
      match Option.bind (List.assoc_opt flag opts) conv with
      | Some v -> v
      | None -> usage ()
    in
    let workload = get "--workload" Option.some in
    let seed = get "--seed" int_of_string_opt in
    let seconds = get "--seconds" int_of_string_opt in
    let trace =
      get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
    in
    if seconds < 1 then usage ();
    ignore (Lazy.force W.git_sha);
    let finish ?(specs = if trace then layer_units else e2e_specs) (o : outcome) metrics =
      print_endline
        (Obs.Json.to_string
           (result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
              metrics specs));
      exit (if o.correct then 0 else 1)
    in
    (match workload with
    | "selftest" ->
      let o = selftest ~seed ~seconds in
      finish ~specs:e2e_specs o o.metrics
    | "all" ->
      let outcomes =
        List.map (fun w -> (w, run_one w ~seed ~seconds ~trace)) W.all
      in
      let combined =
        List.fold_left
          (fun acc (_, o) ->
            {
              acc with
              correct = acc.correct && o.correct;
              attempted = acc.attempted + o.attempted;
              failed = acc.failed + o.failed;
            })
          { metrics = []; correct = true; attempted = 0; failed = 0 }
          outcomes
      in
      let specs =
        List.concat_map
          (fun ((w : W.t), _) ->
            List.map
              (fun (n, u) -> (w.W.name ^ "/" ^ n, u))
              (if trace then layer_units else e2e_specs))
          outcomes
      in
      let metrics =
        List.concat_map
          (fun ((w : W.t), o) -> List.map (fun (n, v) -> (w.W.name ^ "/" ^ n, v)) o.metrics)
          outcomes
      in
      print_endline
        (Obs.Json.to_string
           (result_json ~correct:combined.correct ~attempted:combined.attempted
              ~failed:combined.failed metrics specs));
      exit (if combined.correct then 0 else 1)
    | name -> (
      match W.find name with
      | Some w when w.W.name <> "selftest" ->
        let o = run_one w ~seed ~seconds ~trace in
        finish o o.metrics
      | _ -> usage ()))
  | [] -> usage ()
