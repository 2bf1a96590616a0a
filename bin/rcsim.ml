(* rcsim: the routing-convergence study CLI.

   Subcommands:
     run       one scenario under one protocol: the paper's single flow and
               failure, or several flows, failures and go-back-N transfers
     fig       regenerate one of the paper's figures (3, 4, 5, 6, 7)
     topo      inspect/export the regular-mesh topology family
     anatomy   narrated single-failure walkthrough (the paper's Figure 1)
     compare   all protocols side by side on one configuration
     loops     run a scenario and report transient forwarding-loop episodes
     trace     replay a JSONL event trace offline
     fuzz      property-based fuzzing against invariant monitors and the
               differential shortest-path oracle
     perf      one-shot local profiling: hot-scope report, ns/event
               distribution and allocation telemetry per protocol
     campaign  parallel experiment campaigns writing BENCH_<section>.json *)

open Cmdliner

(* ---------- shared options ---------- *)

(* [c] restricted to the values [ok] accepts; any other value is a usage
   error naming the flag, the value and what was [expected]. *)
let checked c ~expected ok =
  let parse s =
    match Arg.conv_parser c s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | result -> result
  in
  Arg.conv (parse, Arg.conv_printer c)

let at_least n =
  checked Arg.int (fun v -> v >= n)
    ~expected:(Printf.sprintf "an integer >= %d" n)

let degree_arg =
  let doc = "Interior node degree of the mesh (3..12)." in
  Arg.(value & opt int 4 & info [ "d"; "degree" ] ~docv:"DEGREE" ~doc)

let rows_arg =
  let doc = "Mesh rows." in
  Arg.(value & opt int 7 & info [ "rows" ] ~docv:"N" ~doc)

let cols_arg =
  let doc = "Mesh columns." in
  Arg.(value & opt int 7 & info [ "cols" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Master RNG seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let runs_arg =
  let doc = "Simulation runs per data point (the paper uses 10)." in
  Arg.(value & opt (at_least 1) 10 & info [ "runs" ] ~docv:"N" ~doc)

let rate_arg =
  let doc = "CBR sending rate in packets per second." in
  Arg.(value & opt float 200. & info [ "rate" ] ~docv:"PPS" ~doc)

(* Every name [--protocol] accepts, for help and error texts. *)
let engine_names =
  String.concat ", "
    (List.map Convergence.Engine_registry.name Convergence.Engine_registry.all)

let protocol_arg =
  let doc =
    Printf.sprintf "Routing protocol, named in any case: %s." engine_names
  in
  Arg.(value & opt string "DBF" & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let degrees_arg =
  let doc = "Node degrees to sweep." in
  Arg.(value & opt (list int) [ 3; 4; 5; 6; 7; 8 ] & info [ "degrees" ] ~docv:"D,D,..." ~doc)

(* The scenario the shared flags describe, checked as the runner would check
   it (and at every degree in [degrees], for sweeps), so a bad flag is a
   usage error naming the value rather than a crash or a quarantined cell. *)
let config_of ?(degrees = []) ~rows ~cols ~degree ~seed ~rate () =
  let cfg =
    {
      Convergence.Config.default with
      rows;
      cols;
      degree;
      seed;
      send_rate_pps = rate;
    }
  in
  List.fold_left
    (fun acc d ->
      Result.bind acc (fun () ->
          Convergence.Config.validate (Convergence.Config.with_degree d cfg)))
    (Convergence.Config.validate cfg)
    degrees
  |> Result.map (fun () -> cfg)

let engine_of_name name =
  match Convergence.Engine_registry.find name with
  | Some e -> Ok e
  | None ->
    Error (Printf.sprintf "unknown protocol %S (try: %s)" name engine_names)

(* ---------- tracing options (shared by run) ---------- *)

let category_of_name s =
  match String.lowercase_ascii s with
  | "data" -> Ok Obs.Event.Data
  | "control" | "ctrl" -> Ok Obs.Event.Control
  | "env" -> Ok Obs.Event.Env
  | "sched" -> Ok Obs.Event.Sched
  | other ->
    Error
      (Printf.sprintf "unknown trace category %S (try: data, control, env, sched)"
         other)

let trace_file_arg =
  let doc =
    "Write the structured event trace to $(docv). Format from the extension: \
     .jsonl/.json/.ndjson for JSON lines (replayable with $(b,rcsim trace)), \
     .csv for CSV, anything else for readable text."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_filter_arg =
  let doc =
    "Restrict the trace to these categories (comma-separated: data, control, \
     env, sched). Default: all."
  in
  Arg.(value & opt (list string) [] & info [ "trace-filter" ] ~docv:"CAT,..." ~doc)

let stats_arg =
  let doc =
    "Print run metrics (scheduler load, control-plane volume, delay histogram) \
     after the report."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* Resolve --trace/--trace-filter into a collector; [None] on a bad category
   name. Caller must [Obs.Trace.close] the collector after the run. *)
let make_trace ~file ~filter =
  let categories =
    List.fold_left
      (fun acc name ->
        match (acc, category_of_name name) with
        | Error _, _ -> acc
        | Ok _, Error e -> Error e
        | Ok cats, Ok c -> Ok (c :: cats))
      (Ok []) filter
  in
  match categories with
  | Error e -> Error e
  | Ok cats -> (
    match file with
    | None -> Ok Obs.Trace.null
    | Some path ->
      let sink = Obs.Sink.to_file path in
      let trace =
        match cats with
        | [] -> Obs.Trace.create sink
        | cats -> Obs.Trace.create ~categories:(List.rev cats) sink
      in
      Ok trace)

(* Rebuild an {!Convergence.Observer.path_result} from its trace encoding. *)
let path_result_of kind path =
  match kind with
  | Obs.Event.Path_complete -> Convergence.Observer.Complete path
  | Obs.Event.Path_broken -> Convergence.Observer.Broken path
  | Obs.Event.Path_looping -> Convergence.Observer.Looping path

(* ---------- run ---------- *)

let csv_arg =
  let doc = "Also write the results as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let loss_arg =
  let doc =
    "Drop each transmission independently with probability $(docv) (0..1); \
     see $(b,--loss-scope). Protocols that use a reliable control transport \
     (BGP, BGP-3, LS) retransmit through the loss unless $(b,--no-rtx)."
  in
  Arg.(value & opt (some float) None & info [ "loss" ] ~docv:"P" ~doc)

let loss_scope_arg =
  let doc = "What --loss applies to: $(b,control), $(b,data) or $(b,all)." in
  Arg.(value & opt string "control" & info [ "loss-scope" ] ~docv:"SCOPE" ~doc)

let no_rtx_arg =
  let doc =
    "Keep the idealized (lossless-bypass) control transport even under \
     injected loss — the \"what breaks without retransmission\" run."
  in
  Arg.(value & flag & info [ "no-rtx" ] ~doc)

let fault_seed_arg =
  let doc =
    "Seed for fault randomness (defaults to the run seed). Varying it \
     re-rolls the injected faults while holding the simulated world fixed."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let faults_of ~loss ~loss_scope ~no_rtx ~fault_seed =
  let scope =
    match String.lowercase_ascii loss_scope with
    | "control" -> Ok Fault.Perturb.Control_only
    | "data" -> Ok Fault.Perturb.Data_only
    | "all" -> Ok Fault.Perturb.All
    | s -> Error (Printf.sprintf "unknown --loss-scope %S" s)
  in
  match (loss, scope) with
  | _, Error e -> Error e
  | None, Ok _ -> Ok { Fault.Spec.none with Fault.Spec.fault_seed }
  | Some p, Ok scope -> (
    let spec =
      {
        Fault.Spec.none with
        Fault.Spec.noise =
          Some { Fault.Perturb.none with Fault.Perturb.drop = p; scope };
        rtx = (if no_rtx then None else Some Fault.Rtx.default_config);
        fault_seed;
      }
    in
    match Fault.Spec.validate spec with
    | Ok () -> Ok spec
    | Error e -> Error e)

let frr_arg =
  let doc =
    "Enable fast reroute: every router precomputes a loop-free backup next \
     hop per destination and switches onto it the instant it locally detects \
     an incident link down, before the protocol reconverges (DESIGN.md §16)."
  in
  Arg.(value & flag & info [ "frr" ] ~doc)

let flows_arg =
  let doc = "Number of concurrent first-row to last-row flows." in
  Arg.(value & opt (at_least 1) 1 & info [ "flows" ] ~docv:"N" ~doc)

let failures_arg =
  let doc =
    "Number of link failures. Failure $(i,i) (counting from 0) fires 5$(i,i) \
     s after the configured failure time, on a random link of the current \
     path of flow $(i,i) mod $(b,--flows)."
  in
  Arg.(value & opt (at_least 0) 1 & info [ "failures" ] ~docv:"N" ~doc)

let packets_arg =
  let doc =
    "Make every flow a reliable go-back-N transfer of $(docv) packets \
     instead of CBR traffic."
  in
  Arg.(value & opt (some (at_least 1)) None & info [ "packets" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Sliding-window size of each transfer; applies only with $(b,--packets)."
  in
  Arg.(value & opt (at_least 1) 16 & info [ "window" ] ~docv:"W" ~doc)

let rto_arg =
  let doc =
    "Retransmission timeout of each transfer in seconds; applies only with \
     $(b,--packets)."
  in
  let positive =
    checked Arg.float ~expected:"a positive number" (fun v -> v > 0.)
  in
  Arg.(value & opt positive 0.5 & info [ "rto" ] ~docv:"SECONDS" ~doc)

let show_transfer (cfg : Convergence.Config.t) ~size
    (o : Convergence.Metrics.transfer) =
  let finish =
    match o.t_completed_at with
    | Some t ->
      Printf.sprintf "%.1f s after transfer start"
        (t -. cfg.Convergence.Config.traffic_start)
    | None -> "not finished by sim_end"
  in
  Fmt.pr
    "transfer: %d/%d packets acknowledged; completion %s; retransmissions %d, \
     duplicates at receiver %d@."
    o.t_completed size finish o.t_retransmissions o.t_duplicates

let run_cmd =
  let action protocol degree rows cols seed rate trace_file trace_filter stats
      csv loss loss_scope no_rtx fault_seed frr nflows nfailures packets window
      rto =
    let ( let* ) = Result.bind in
    match
      let* engine = engine_of_name protocol in
      let* cfg = config_of ~rows ~cols ~degree ~seed ~rate () in
      let* faults = faults_of ~loss ~loss_scope ~no_rtx ~fault_seed in
      let* trace = make_trace ~file:trace_file ~filter:trace_filter in
      Ok (engine, cfg, faults, trace)
    with
    | Error e -> `Error (false, e)
    | Ok (engine, cfg, faults, trace) ->
      let traffic =
        match packets with
        | None -> Convergence.Runner.Cbr None
        | Some total_packets ->
          Convergence.Runner.Transfer
            {
              Convergence.Runner.default_transport with
              window;
              rto;
              total_packets;
            }
      in
      let flows =
        List.init nflows (fun _ ->
            { Convergence.Runner.default_flow with flow_traffic = traffic })
      in
      let failures =
        List.init nfailures (fun i ->
            {
              Convergence.Runner.fail_at =
                cfg.Convergence.Config.failure_time +. (float_of_int i *. 5.);
              target = Convergence.Runner.Flow_path (i mod nflows);
              heal_after = None;
            })
      in
      let metrics = if stats then Some (Obs.Registry.create ()) else None in
      let m =
        Convergence.Engine_registry.run_multi ~faults ~frr ~trace ?metrics
          ~flows ~failures cfg engine
      in
      Obs.Trace.close trace;
      Option.iter
        (fun size ->
          List.iter
            (fun (f : Convergence.Metrics.flow) ->
              Option.iter (show_transfer cfg ~size) f.f_transfer)
            m.Convergence.Metrics.m_flows)
        packets;
      Fmt.pr "%a@." Convergence.Metrics.pp_multi m;
      (match metrics with
      | Some m -> Fmt.pr "@.run metrics:@.%a@." Obs.Registry.pp m
      | None -> ());
      (match csv with
      | Some path ->
        Convergence.Export.to_file (Convergence.Export.run_csv [ m ]) ~path
      | None -> ());
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ degree_arg $ rows_arg $ cols_arg $ seed_arg
       $ rate_arg $ trace_file_arg $ trace_filter_arg $ stats_arg $ csv_arg
       $ loss_arg $ loss_scope_arg $ no_rtx_arg $ fault_seed_arg $ frr_arg
       $ flows_arg $ failures_arg $ packets_arg $ window_arg $ rto_arg))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one failure scenario under one routing protocol: the paper's \
          single CBR flow by default, or several flows, overlapping failures \
          and reliable transfers")
    term

(* ---------- sweep execution (shared by fig, compare and campaign) ---------- *)

(* A cached campaign shuts down gracefully on the first SIGINT/SIGTERM:
   the handler only sets the cooperative stop flag (workers abandon their
   in-flight cell at the next scheduler poll and drain the queue), then
   restores the default disposition so a second signal kills the process the
   ordinary way. The handler body is write(2) + an atomic store — safe at
   OCaml's signal safe-points. *)
let install_stop_handlers () =
  let handle _ =
    Dessim.Scheduler.request_stop ();
    let msg =
      "\nrcsim: stop requested; abandoning in-flight cells (signal again to \
       kill)\n"
    in
    ignore (Unix.write Unix.stderr (Bytes.of_string msg) 0 (String.length msg));
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Sys.set_signal Sys.sigterm Sys.Signal_default
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)

(* Exit status of a gracefully stopped campaign — distinct from cmdliner's
   0/123/124/125 so scripts and CI can tell "stopped, rerun me" from
   success and from real failure. *)
let stopped_exit_code = 4

let stopped_incomplete ~missing ~cache_dir =
  Fmt.epr "stopped: %d cell(s) not run@." missing;
  (match cache_dir with
  | Some dir ->
    Fmt.epr
      "finished cells are stored in the cache %s; rerun the same command \
       (without --stop-after-cells) to finish@."
      dir
  | None -> Fmt.epr "no --cache was given; the partial results are lost@.");
  exit stopped_exit_code

(* The one path every sweep result takes: the section's cells through
   [Driver.run_tasks] (progress on stderr), merged in canonical cell order
   into the section's artifact. A graceful stop that left cells unrun exits
   with [stopped_exit_code] instead of returning a partial artifact. *)
let run_section ?(jobs = Campaign.Pool.default_jobs ()) ?(quiet = false)
    ?cell_budget ?retries ?hang ?stop_after ?cache ?cache_dir ?backend ~mode
    (section : Campaign.Sections.t) sweep =
  let tasks = section.Campaign.Sections.tasks sweep in
  let progress line = if not quiet then Fmt.epr "  .. %s@." line in
  let heartbeat line = if not quiet then Fmt.epr "  %s@." line in
  let cells, quarantined, timing =
    Campaign.Driver.run_tasks ~jobs ~progress ~heartbeat ?cell_budget ?retries
      ?hang ?stop_after ?cache ?backend tasks
  in
  let missing =
    Campaign.Driver.missing_count ~total:(Array.length tasks) cells quarantined
  in
  if missing > 0 then stopped_incomplete ~missing ~cache_dir;
  Campaign.Driver.artifact_of ~section ~mode ~timing ~quarantined sweep cells

(* A section's tables, rendered from its merged artifact, and the cells the
   driver gave up on. *)
let show_artifact (section : Campaign.Sections.t) artifact =
  Fmt.pr "=== %s ===@." section.Campaign.Sections.title;
  section.Campaign.Sections.render Fmt.stdout artifact;
  match artifact.Campaign.Artifact.quarantined with
  | [] -> ()
  | qs ->
    Fmt.pr "%d cell(s) quarantined:@." (List.length qs);
    List.iter
      (fun (q : Campaign.Artifact.quarantine) ->
        Fmt.pr "  %s d=%d seed=%d after %d attempt(s): %s@."
          q.Campaign.Artifact.q_protocol q.Campaign.Artifact.q_degree
          q.Campaign.Artifact.q_seed q.Campaign.Artifact.q_attempts
          q.Campaign.Artifact.q_error)
      qs

(* ---------- fig ---------- *)

let fig_cmd =
  let which_arg =
    let doc = "Figure number: 3, 4, 5, 6 or 7." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"FIGURE" ~doc)
  in
  let action which runs degrees rows cols seed rate =
    match
      ( Campaign.Sections.find (Printf.sprintf "fig%d" which),
        config_of ~degrees ~rows ~cols ~degree:4 ~seed ~rate () )
    with
    | None, _ -> `Error (false, "figure must be 3, 4, 5, 6 or 7")
    | _, Error e -> `Error (false, e)
    | Some section, Ok base ->
      let sweep = Convergence.Experiments.{ degrees; runs; base } in
      show_artifact section (run_section ~mode:"custom" section sweep);
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ which_arg $ runs_arg $ degrees_arg $ rows_arg $ cols_arg
       $ seed_arg $ rate_arg))
  in
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate one of the paper's figures") term

(* ---------- topo ---------- *)

let topo_cmd =
  let dot_arg =
    let doc = "Emit Graphviz DOT instead of a summary." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let family_arg =
    let doc =
      "Topology family: $(b,mesh) (the paper's), $(b,er) (Erdős–Rényi), \
       $(b,waxman), $(b,ba) (Barabási–Albert preferential attachment) or \
       $(b,hier) (tier-1/tier-2/stub AS-like)."
    in
    Arg.(
      value
      & opt (enum [ ("mesh", `Mesh); ("er", `Er); ("waxman", `Waxman); ("ba", `Ba); ("hier", `Hier) ]) `Mesh
      & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let nodes_arg =
    let doc = "Node count for the random families (ignored for mesh)." in
    Arg.(value & opt int 49 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let p_arg =
    let doc = "Edge probability for $(b,er)." in
    Arg.(value & opt (some float) None & info [ "p" ] ~docv:"P" ~doc)
  in
  let m_arg =
    let doc = "Edges per new node for $(b,ba)." in
    Arg.(value & opt int 2 & info [ "m"; "ba-m" ] ~docv:"M" ~doc)
  in
  let tiers_arg =
    let doc =
      "Explicit tier sizes $(docv) for $(b,hier) (default: derived from \
       --nodes as in the campaign sweep)."
    in
    Arg.(
      value
      & opt (some (t3 int int int)) None
      & info [ "tiers" ] ~docv:"T1,T2,STUBS" ~doc)
  in
  let action degree rows cols seed dot family nodes p m tiers =
    match
      let rng = Dessim.Rng.create seed in
      match family with
      | `Mesh -> Ok (Netsim.Mesh.generate ~rows ~cols ~degree)
      | `Er ->
        let p = Option.value p ~default:(6. /. float_of_int (max 2 nodes - 1)) in
        Ok (Netsim.Random_topo.erdos_renyi rng ~nodes ~p)
      | `Waxman -> Ok (Netsim.Random_topo.waxman rng ~nodes ~alpha:0.4 ~beta:0.2)
      | `Ba -> Ok (Netsim.Random_topo.barabasi_albert rng ~nodes ~m)
      | `Hier -> (
        match tiers with
        | None -> Ok (Netsim.Random_topo.hierarchical_auto rng ~nodes)
        | Some (t1, t2, stubs) ->
          Ok
            (Netsim.Random_topo.hierarchical rng ~t1 ~t2 ~stubs
               ~t2_uplinks:(min 2 t1) ~stub_uplinks:(min 2 t2) ()))
    with
    | exception Invalid_argument e -> `Error (false, e)
    | Error e -> `Error (false, e)
    | Ok topo ->
      if dot then print_string (Netsim.Dot.to_dot topo)
      else Fmt.pr "%a@." Netsim.Dot.summary topo;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ degree_arg $ rows_arg $ cols_arg $ seed_arg $ dot_arg
       $ family_arg $ nodes_arg $ p_arg $ m_arg $ tiers_arg))
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Inspect or export a topology: the paper's mesh or one of the \
          random families (ER, Waxman, BA, hierarchical)")
    term

(* ---------- anatomy ---------- *)

let anatomy_cmd =
  let action protocol seed =
    match engine_of_name protocol with
    | Error e -> `Error (false, e)
    | Ok engine ->
      Fmt.pr
        "The paper's Figure 1 scenario: a single link failure on the\n\
         sender->receiver path, narrated. Topology: 4x4 mesh, degree 4.@.@.";
      let cfg =
        {
          Convergence.Config.quick with
          rows = 4;
          cols = 4;
          degree = 4;
          seed;
          send_rate_pps = 100.;
        }
      in
      let narrate (r : Obs.Sink.record) =
        let t = r.time -. cfg.Convergence.Config.warmup in
        match r.event with
        | Obs.Event.Link_failed { u; v } ->
          Fmt.pr "t=%7.2f  link %d-%d fails (detected %.1f s later)@." t u v
            cfg.Convergence.Config.detection_delay
        | Obs.Event.Path_changed { kind; path; _ } ->
          Fmt.pr "t=%7.2f  forwarding path is now %a@." t
            Convergence.Observer.pp (path_result_of kind path)
        | _ -> ()
      in
      let trace =
        Obs.Trace.create ~categories:[ Obs.Event.Env ]
          (Obs.Sink.callback narrate)
      in
      let m = Convergence.Engine_registry.run ~trace cfg engine in
      Fmt.pr "@.%a@." Convergence.Metrics.pp_multi m;
      `Ok ()
  in
  let term = Term.(ret (const action $ protocol_arg $ seed_arg)) in
  Cmd.v
    (Cmd.info "anatomy"
       ~doc:"Narrated walkthrough of packet delivery during convergence (paper Fig. 1)")
    term

(* ---------- compare ---------- *)

(* One line per (protocol, degree) aggregate: mean delivery, drops by cause,
   convergence delays with their standard deviations, transient paths and
   control messages. *)
let pp_aggregate_line ppf (g : Campaign.Artifact.aggregate) =
  let stat name = List.assoc name g.Campaign.Artifact.a_metrics in
  let m name = (stat name).Campaign.Artifact.mean in
  let sd name = (stat name).Campaign.Artifact.stddev in
  Fmt.pf ppf
    "%-8s d=%d runs=%d | delivered %.1f/%.1f | drops: no-route %.1f, ttl %.1f, \
     queue %.1f, link %.1f | conv: fwd %.2fs (sd %.2f), routing %.2fs (sd %.2f) \
     | transient paths %.1f | ctrl msgs %.0f"
    g.Campaign.Artifact.a_protocol g.Campaign.Artifact.a_degree
    g.Campaign.Artifact.a_runs (m "delivered") (m "sent") (m "drops_no_route")
    (m "drops_ttl") (m "drops_queue") (m "drops_link") (m "fwd_convergence")
    (sd "fwd_convergence") (m "routing_convergence") (sd "routing_convergence")
    (m "transient_paths") (m "ctrl_messages")

let compare_cmd =
  let action degree rows cols seed rate runs =
    match config_of ~rows ~cols ~degree ~seed ~rate () with
    | Error e -> `Error (false, e)
    | Ok base ->
      let sweep = Convergence.Experiments.{ degrees = [ degree ]; runs; base } in
      let section =
        Campaign.Sections.grid ~name:"compare"
          ~engines:Convergence.Engine_registry.all ()
      in
      let artifact = run_section ~mode:"custom" section sweep in
      List.iter
        (Fmt.pr "%a@." pp_aggregate_line)
        artifact.Campaign.Artifact.aggregates;
      `Ok ()
  in
  let term =
    Term.(
      ret (const action $ degree_arg $ rows_arg $ cols_arg $ seed_arg $ rate_arg $ runs_arg))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"All seven protocol engines side by side on one setup")
    term

(* ---------- loops ---------- *)

let loops_cmd =
  let action protocol degree rows cols seed rate =
    match
      (engine_of_name protocol, config_of ~rows ~cols ~degree ~seed ~rate ())
    with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok engine, Ok cfg ->
      let loop_events = ref [] in
      let collect (r : Obs.Sink.record) =
        match r.event with
        | Obs.Event.Loop_enter _ | Obs.Event.Loop_exit _ ->
          loop_events := r :: !loop_events
        | _ -> ()
      in
      let trace =
        Obs.Trace.create ~categories:[ Obs.Event.Data ]
          (Obs.Sink.callback collect)
      in
      let m = Convergence.Engine_registry.run ~trace cfg engine in
      (* The same episode pairing and rendering as [rcsim trace]. *)
      (match Obs.Replay.loop_report (List.rev !loop_events) with
      | [] -> Fmt.pr "no transient forwarding loops on the flow's path@."
      | episodes ->
        Fmt.pr "%d loop episode(s):@." (List.length episodes);
        List.iter
          (fun e -> Fmt.pr "  %a@." Obs.Replay.pp_loop_episode e)
          episodes);
      List.iter
        (fun (f : Convergence.Metrics.flow) ->
          Fmt.pr "TTL expirations: %d; packets that escaped a loop: %d@."
            f.f_drops_ttl f.f_looped_delivered)
        m.Convergence.Metrics.m_flows;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ protocol_arg $ degree_arg $ rows_arg $ cols_arg $ seed_arg
       $ rate_arg))
  in
  Cmd.v
    (Cmd.info "loops"
       ~doc:"Identify transient forwarding-loop episodes in one scenario")
    term

(* ---------- trace (offline replay) ---------- *)

let trace_cmd =
  let file_arg =
    let doc = "JSONL trace file written by $(b,rcsim run --trace FILE.jsonl)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let bucket_arg =
    let doc = "Drop-timeline bucket width in simulation seconds." in
    Arg.(value & opt float 1.0 & info [ "bucket" ] ~docv:"SECONDS" ~doc)
  in
  let flow_arg =
    let doc = "Restrict packet totals to one flow index." in
    Arg.(value & opt (some int) None & info [ "flow" ] ~docv:"N" ~doc)
  in
  let prof_arg =
    let doc =
      "Profile the replay: report where analysis time goes (parsing, packet \
       totals, timelines, loop detection) as a cost-attribution summary."
    in
    Arg.(value & flag & info [ "prof" ] ~doc)
  in
  let s_read = Obs.Prof.scope "replay.read" in
  let s_counts = Obs.Prof.scope "replay.event_counts" in
  let s_totals = Obs.Prof.scope "replay.totals" in
  let s_timeline = Obs.Prof.scope "replay.drop_timeline" in
  let s_loops = Obs.Prof.scope "replay.loop_report" in
  let s_links = Obs.Prof.scope "replay.link_report" in
  let s_frr = Obs.Prof.scope "replay.frr_report" in
  let action file bucket flow prof =
    if bucket <= 0. then `Error (false, "bucket width must be positive")
    else begin
      if prof then Obs.Prof.set_enabled true;
      match Obs.Prof.time s_read (fun () -> Obs.Replay.read_file file) with
      | exception Sys_error e -> `Error (false, e)
      | records, stats ->
        Fmt.pr "%s: %d events" file stats.Obs.Replay.parsed;
        if stats.Obs.Replay.opaque > 0 then
          Fmt.pr " (%d unknown-event lines preserved as opaque)"
            stats.Obs.Replay.opaque;
        if stats.Obs.Replay.skipped > 0 then
          Fmt.pr " (%d unparseable lines skipped)" stats.Obs.Replay.skipped;
        Fmt.pr "@.@.";
        if records = [] then Fmt.pr "nothing to replay@."
        else begin
          Fmt.pr "event counts:@.";
          List.iter
            (fun (name, n) -> Fmt.pr "  %7d  %s@." n name)
            (Obs.Prof.time s_counts (fun () -> Obs.Replay.event_counts records));
          let totals =
            Obs.Prof.time s_totals (fun () -> Obs.Replay.totals ?flow records)
          in
          Fmt.pr "@.packet conservation%s:@.  %a@."
            (match flow with
            | Some f -> Printf.sprintf " (flow %d)" f
            | None -> "")
            Obs.Replay.pp_totals totals;
          let timeline =
            Obs.Prof.time s_timeline (fun () ->
                Obs.Replay.drop_timeline ~bucket records)
          in
          if timeline.Obs.Replay.rows <> [] then
            Fmt.pr "@.drop timeline:@.%a@." Obs.Replay.pp_timeline timeline;
          (match Obs.Prof.time s_loops (fun () -> Obs.Replay.loop_report records) with
          | [] -> Fmt.pr "@.no loop episodes@."
          | episodes ->
            Fmt.pr "@.%d loop episode(s):@." (List.length episodes);
            List.iter
              (fun e -> Fmt.pr "  %a@." Obs.Replay.pp_loop_episode e)
              episodes);
          (match Obs.Prof.time s_links (fun () -> Obs.Replay.link_report records) with
          | [] -> ()
          | episodes ->
            Fmt.pr "@.%d link outage episode(s):@." (List.length episodes);
            List.iter
              (fun e -> Fmt.pr "  %a@." Obs.Replay.pp_link_episode e)
              episodes);
          let frr = Obs.Prof.time s_frr (fun () -> Obs.Replay.frr_report records) in
          if frr.Obs.Replay.fr_activations > 0 || frr.Obs.Replay.fr_forwards > 0
          then begin
            Fmt.pr
              "@.fast reroute: %d backups installed, %d activations, %d \
               backup forwards, %d exhausted@."
              frr.Obs.Replay.fr_installs frr.Obs.Replay.fr_activations
              frr.Obs.Replay.fr_forwards frr.Obs.Replay.fr_exhausted;
            List.iter
              (fun e -> Fmt.pr "  %a@." Obs.Replay.pp_frr_episode e)
              frr.Obs.Replay.fr_episodes;
            match frr.Obs.Replay.fr_exhausted_windows with
            | [] -> ()
            | windows ->
              Fmt.pr "  %d exhausted-backup window(s):@." (List.length windows);
              List.iter
                (fun w -> Fmt.pr "    %a@." Obs.Replay.pp_frr_window w)
                windows
          end
        end;
        if prof then Fmt.pr "@.cost attribution:@.%a" Obs.Prof.pp_report ();
        `Ok ()
    end
  in
  let term =
    Term.(ret (const action $ file_arg $ bucket_arg $ flow_arg $ prof_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a JSONL trace into drop timelines, loop episodes, and \
          conservation totals")
    term

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let runs_arg =
    let doc = "Random scenarios to run per protocol." in
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Fuzzer seed. The scenario stream is a pure function of this value."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let protocol_arg =
    let doc =
      Printf.sprintf
        "Fuzz only this engine, named in any case: %s. Default: the paper's four."
        engine_names
    in
    Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)
  in
  let preview n pp xs =
    let shown, rest =
      if List.length xs > n then (List.filteri (fun i _ -> i < n) xs, List.length xs - n)
      else (xs, 0)
    in
    List.iter (fun x -> Fmt.pr "    %a@." pp x) shown;
    if rest > 0 then Fmt.pr "    ... and %d more@." rest
  in
  let action runs seed protocol =
    if runs <= 0 then `Error (false, "--runs must be positive")
    else
      let protos =
        match protocol with
        | Some p -> [ p ]
        | None ->
          List.map Convergence.Engine_registry.name
            Convergence.Engine_registry.paper_four
      in
      match
        List.map
          (fun proto -> (proto, Check.Fuzz.check ~proto ~runs ~seed))
          protos
      with
      | exception Invalid_argument e -> `Error (false, e)
      | reports ->
        let failed = ref false in
        List.iter
          (fun (proto, report) ->
            match report with
            | Check.Fuzz.Passed { runs } ->
              Fmt.pr "%-6s %d scenarios, all invariants held, tables match \
                      the oracle@." proto runs
            | Check.Fuzz.Failed { counterexample; shrink_steps; outcome } ->
              failed := true;
              Fmt.pr "%-6s FAILED (shrunk %d steps)@.  scenario: %a@." proto
                shrink_steps Check.Fuzz.pp_scenario counterexample;
              (match outcome.Check.Fuzz.o_violations with
              | [] -> ()
              | vs ->
                Fmt.pr "  %d invariant violation(s):@." (List.length vs);
                preview 5 Check.Monitor.pp_violation vs);
              (match outcome.Check.Fuzz.o_mismatches with
              | [] -> ()
              | ms ->
                Fmt.pr "  %d oracle mismatch(es):@." (List.length ms);
                preview 5 Check.Oracle.pp_mismatch ms);
              Fmt.pr "  reproduce: rcsim fuzz --runs %d --seed %d -p %s@." runs
                seed proto
            | Check.Fuzz.Crashed { counterexample; message } ->
              failed := true;
              Fmt.pr "%-6s CRASHED: %s@." proto message;
              Option.iter
                (fun sc -> Fmt.pr "  scenario: %a@." Check.Fuzz.pp_scenario sc)
                counterexample)
          reports;
        if !failed then `Error (false, "fuzzing found failures") else `Ok ()
  in
  let term = Term.(ret (const action $ runs_arg $ seed_arg $ protocol_arg)) in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz random scenarios against runtime invariant monitors and the \
          differential shortest-path oracle")
    term

(* ---------- perf ---------- *)

let perf_cmd =
  let repeat_arg =
    let doc = "Measured repetitions per protocol (after one warm-up run)." in
    Arg.(value & opt int 3 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let proto_opt_arg =
    let doc =
      Printf.sprintf
        "Profile only this engine, named in any case: %s. Default: the \
         paper's four."
        engine_names
    in
    Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)
  in
  (* ns/event sits around 10^2..10^4 ns; log-spaced edges from 10 ns to 1 ms
     at 10 buckets per decade keep the quantile upper bounds within ~26%. *)
  let ns_bounds = Array.init 51 (fun i -> 10. *. (10. ** (float_of_int i /. 10.))) in
  let profile ~cfg ~repeat engine =
    let name = Convergence.Engine_registry.name engine in
    (* Warm-up run: absorbs one-time costs (domain-local state, size-class
       growth) so the measured repetitions see a steady state. *)
    ignore (Convergence.Engine_registry.run cfg engine);
    Obs.Prof.reset ();
    let dist = Obs.Registry.create () in
    let h = Obs.Registry.histogram ~bounds:ns_bounds dist "ns_per_event" in
    let events = ref 0. in
    let w_per_event = ref Float.nan in
    let total_ns = ref 0. in
    let last_gc = ref None in
    for _ = 1 to repeat do
      let m = Obs.Registry.create () in
      let t0 = Obs.Prof.now_ns () in
      let _r, g =
        Obs.Prof.gc_delta (fun () ->
            Convergence.Engine_registry.run ~metrics:m cfg engine)
      in
      let ns = Int64.to_float (Int64.sub (Obs.Prof.now_ns ()) t0) in
      (match Obs.Registry.lookup m "scheduler.events_fired" with
      | Some (Obs.Registry.Gauge_value v) -> events := v
      | _ -> ());
      (match Obs.Registry.lookup m "alloc.minor_words_per_event" with
      | Some (Obs.Registry.Gauge_value v) -> w_per_event := v
      | _ -> ());
      if !events > 0. then Obs.Registry.observe h (ns /. !events);
      total_ns := !total_ns +. ns;
      last_gc := Some g
    done;
    Fmt.pr "=== %s: %dx%d mesh, degree %d, %d measured run(s) ===@." name
      cfg.Convergence.Config.rows cfg.Convergence.Config.cols
      cfg.Convergence.Config.degree repeat;
    Fmt.pr "events/run:  %.0f@." !events;
    let mean_ns = !total_ns /. float_of_int repeat in
    if !events > 0. && mean_ns > 0. then begin
      Fmt.pr "events/s:    %.0f@." (!events *. 1e9 /. mean_ns);
      (match Obs.Registry.lookup dist "ns_per_event" with
      | Some (Obs.Registry.Histogram_value { mean; p50; p95; p99; max; _ }) ->
        Fmt.pr "ns/event:    mean %.1f  p50<=%.0f  p95<=%.0f  p99<=%.0f  max \
                %.1f@."
          mean p50 p95 p99 max
      | _ -> ());
      Fmt.pr "alloc:       %.1f minor words/event@." !w_per_event
    end;
    (match !last_gc with
    | Some g -> Fmt.pr "gc/run:      %a@." Obs.Prof.pp_gc_delta g
    | None -> ());
    Fmt.pr "hot scopes:@.%a@." Obs.Prof.pp_report ()
  in
  let action protocol degree rows cols seed rate repeat =
    if repeat <= 0 then `Error (false, "--repeat must be positive")
    else
      let engines =
        match protocol with
        | None -> Ok Convergence.Engine_registry.paper_four
        | Some p -> Result.map (fun e -> [ e ]) (engine_of_name p)
      in
      match (engines, config_of ~rows ~cols ~degree ~seed ~rate ()) with
      | Error e, _ | _, Error e -> `Error (false, e)
      | Ok engines, Ok cfg ->
        Obs.Prof.set_enabled true;
        List.iter (profile ~cfg ~repeat) engines;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ proto_opt_arg $ degree_arg $ rows_arg $ cols_arg
       $ seed_arg $ rate_arg $ repeat_arg))
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Profile the engine locally: per-protocol events/sec, ns/event \
          quantiles, allocation telemetry, and a hot-scope timer report")
    term

(* ---------- campaign ---------- *)

(* Overall measured engine throughput of an artifact, [None] when it
   carries no perf measurements. *)
let overall_events_per_s a =
  Option.map (fun (events, s) -> events /. s) (Campaign.Artifact.overall_perf a)

(* The schema-v4 axis legend of an artifact: each axis name with its values,
   both in first-appearance order across the aggregates. Empty for plain
   (protocol, degree) grids and pre-v4 artifacts. *)
let artifact_axes (a : Campaign.Artifact.t) =
  let push xs x = if List.mem x !xs then () else xs := !xs @ [ x ] in
  let names = ref [] in
  List.iter
    (fun (g : Campaign.Artifact.aggregate) ->
      List.iter (fun (k, _) -> push names k) g.Campaign.Artifact.a_axes)
    a.Campaign.Artifact.aggregates;
  List.map
    (fun name ->
      let vals = ref [] in
      List.iter
        (fun (g : Campaign.Artifact.aggregate) ->
          match List.assoc_opt name g.Campaign.Artifact.a_axes with
          | Some v -> push vals v
          | None -> ())
        a.Campaign.Artifact.aggregates;
      (name, !vals))
    !names

(* One line per (schedule, protocol): mean loss-window seconds across the
   degree axis, FRR off against on. Only meaningful on artifacts whose axes
   carry a "frr" dimension and whose cells report [loss_window_s]. *)
let print_loss_window_summary (a : Campaign.Artifact.t) ~schedules ~protocols =
  let mean_for ~sched ~proto ~frr =
    let samples =
      List.filter_map
        (fun (g : Campaign.Artifact.aggregate) ->
          let axis k = List.assoc_opt k g.Campaign.Artifact.a_axes in
          if
            g.Campaign.Artifact.a_protocol = proto
            && axis "schedule" = Some sched
            && axis "frr" = Some frr
          then
            Option.map
              (fun (s : Campaign.Artifact.stat) -> s.Campaign.Artifact.mean)
              (List.assoc_opt "loss_window_s" g.Campaign.Artifact.a_metrics)
          else None)
        a.Campaign.Artifact.aggregates
    in
    if samples = [] then None else Some (Dessim.Stat.mean samples)
  in
  Fmt.pr "loss window (s at zero delivery, mean over degrees, FRR off -> on):@.";
  List.iter
    (fun sched ->
      let cols =
        List.filter_map
          (fun proto ->
            match (mean_for ~sched ~proto ~frr:"off", mean_for ~sched ~proto ~frr:"on") with
            | Some off, Some on ->
              Some (Printf.sprintf "%-6s %6.1f -> %6.1f" proto off on)
            | _ -> None)
          protocols
      in
      if cols <> [] then
        Fmt.pr "  %-8s %s@." sched (String.concat "   " cols))
    schedules

let campaign_cmd =
  let quick_arg =
    let doc = "Tiny sweep, short timeline (CI smoke)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let full_arg =
    let doc = "The paper's full setup (10 seeds, degrees 3..8, 800 s)." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains executing campaign cells in parallel. The merged \
       artifact is byte-identical whatever this is set to. Defaults to the \
       machine's core count minus one; $(b,--jobs 1) runs sequentially."
    in
    Arg.(
      value
      & opt int (Campaign.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let out_arg section =
    let doc = "Artifact output path." in
    Arg.(
      value
      & opt string (Printf.sprintf "BENCH_%s.json" section)
      & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let runs_opt_arg =
    let doc = "Override the number of seeds per (protocol, degree) cell." in
    Arg.(value & opt (some (at_least 1)) None & info [ "runs" ] ~docv:"N" ~doc)
  in
  let degrees_opt_arg =
    let doc = "Override the node degrees swept." in
    Arg.(value & opt (some (list int)) None & info [ "degrees" ] ~docv:"D,D,..." ~doc)
  in
  let seed_opt_arg =
    let doc = "Override the base RNG seed (cell $(i,i) uses seed + i)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-cell progress lines (stderr)." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let cell_budget_arg =
    let doc =
      "Wall-clock watchdog per cell attempt, in seconds. A cell exceeding it \
       is retried (see $(b,--retries)) and finally quarantined into the \
       artifact instead of aborting the campaign."
    in
    Arg.(value & opt (some float) None & info [ "cell-budget" ] ~docv:"SECS" ~doc)
  in
  let retries_arg =
    let doc = "Additional same-seed attempts after a cell fails (default 1)." in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let hang_cell_arg =
    let doc =
      "CI fault hook: make the cell $(docv) (PROTO:DEGREE:SEED) spin forever \
       instead of running, proving the watchdog quarantines it. Requires \
       $(b,--cell-budget)."
    in
    Arg.(value & opt (some string) None & info [ "hang-cell" ] ~docv:"CELL" ~doc)
  in
  let stop_after_arg =
    let doc =
      "Test/CI hook: request a graceful stop after $(docv) cells have \
       completed, exactly as a signal would."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after-cells" ] ~docv:"K" ~doc)
  in
  let prof_arg =
    let doc =
      "Enable the engine profiler during the campaign and print the \
       hot-scope report to stderr afterwards. The artifact is unaffected \
       (profiling data never enters it); with $(b,--jobs) > 1 the \
       attribution is approximate, since concurrent cells share scopes."
    in
    Arg.(value & flag & info [ "prof" ] ~doc)
  in
  let backend_arg =
    let doc =
      "Cell execution backend. $(b,domains) (default) runs cells on an \
       in-process pool of OCaml domains; $(b,proc) runs each cell in one of \
       $(b,--jobs) supervised worker processes (separate $(b,rcsim) \
       invocations), so a crashing, hanging or OOM-killed cell costs one \
       worker — killed and respawned — instead of the campaign. The merged \
       artifact is byte-identical across backends."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("domains", `Domains); ("proc", `Proc) ]) `Domains
      & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let cache_arg =
    let doc =
      "Content-addressed cell cache directory (created if missing). \
       Finished cells are stored (fsync'd) under a digest of (artifact \
       schema, git sha, executable digest, section family, sweep preset, \
       CLI overrides, cell key); later runs with identical inputs load the \
       hits and run only the rest, producing byte-identical artifacts. \
       With a cache, SIGINT/SIGTERM stop the campaign gracefully: \
       in-flight cells are abandoned, the exit status is 4, and rerunning \
       the same command finishes it. Quarantined cells are not stored, so \
       a rerun tries them again. Corrupt or truncated entries are treated \
       as misses, never as errors."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)
  in
  let die_cell_arg =
    let doc =
      "CI fault hook (requires $(b,--backend proc)): the worker picking up \
       cell $(docv) (PROTO:DEGREE:SEED) SIGKILLs itself, proving the \
       supervisor respawns workers and retries or quarantines the cell."
    in
    Arg.(value & opt (some string) None & info [ "die-cell" ] ~docv:"CELL" ~doc)
  in
  let cell_key_of ~flag = function
    | None -> Ok None
    | Some s -> (
      match String.split_on_char ':' s with
      | [ proto; degree; seed ] -> (
        match (int_of_string_opt degree, int_of_string_opt seed) with
        | Some d, Some sd -> Ok (Some (proto, d, sd))
        | _ -> Error (Printf.sprintf "%s %S: DEGREE and SEED must be integers" flag s))
      | _ -> Error (Printf.sprintf "%s %S is not PROTO:DEGREE:SEED" flag s))
  in
  let hang_of = cell_key_of ~flag:"--hang-cell" in
  let sweep_of ~quick ~full ~runs ~degrees ~seed =
    let base =
      if quick then
        Convergence.Experiments.
          {
            degrees = [ 3; 4; 6 ];
            runs = 3;
            base =
              {
                Convergence.Config.default with
                send_rate_pps = 100.;
                traffic_start = 60.;
                warmup = 70.;
                failure_time = 80.;
                sim_end = 220.;
              };
          }
      else if full then Convergence.Experiments.paper_sweep
      else Convergence.Experiments.(scale ~runs:5 paper_sweep)
    in
    let base = Convergence.Experiments.scale ?runs ?degrees base in
    match seed with
    | None -> base
    | Some s ->
      {
        base with
        Convergence.Experiments.base =
          { base.Convergence.Experiments.base with Convergence.Config.seed = s };
      }
  in
  (* The proc backend's worker command: this same executable, re-invoked
     into the hidden [campaign worker] mode with every flag that shapes the
     task decomposition, so worker and supervisor rebuild identical sweeps
     (the driver quarantines any cell whose key disagrees, so skew is
     detected, not trusted). *)
  let worker_argv ~section_name ~mode ~runs ~degrees ~seed ~cell_budget
      ~hang_cell ~die_cell =
    let opt flag v f = match v with None -> [] | Some x -> [ flag; f x ] in
    Array.of_list
      ([ Sys.executable_name; "campaign"; "worker"; section_name; "--mode"; mode ]
      @ opt "--runs" runs string_of_int
      @ opt "--degrees" degrees (fun ds ->
            String.concat "," (List.map string_of_int ds))
      @ opt "--seed" seed string_of_int
      @ opt "--cell-budget" cell_budget string_of_float
      @ opt "--hang-cell" hang_cell Fun.id
      @ opt "--die-cell" die_cell Fun.id)
  in
  let cache_of ~dir ~family ~mode ~runs ~degrees ~seed =
    Option.map
      (fun dir ->
        Campaign.Cache.open_ ~dir
          {
            Campaign.Cache.git_sha = Campaign.Artifact.git_sha ();
            family;
            mode;
            runs;
            degrees;
            seed;
          })
      dir
  in
  let render_result (section : Campaign.Sections.t) ~out artifact =
    Campaign.Artifact.write ~path:out artifact;
    show_artifact section artifact;
    Fmt.pr "artifact: %s@." out
  in
  let section_cmd (section : Campaign.Sections.t) =
    let action quick full jobs out runs degrees seed quiet cell_budget retries
        hang_cell die_cell backend cache_dir stop_after prof =
      let fixed_axis_error =
        match Campaign.Sections.fixed_axis section with
        | Some axis when runs <> None || degrees <> None ->
          Some
            (Printf.sprintf
               "campaign %s takes neither --degrees nor --runs; its axis is \
                fixed: %s"
               section.Campaign.Sections.name axis)
        | Some _ | None -> None
      in
      if quick && full then `Error (true, "--quick and --full are exclusive")
      else if jobs < 1 then `Error (true, "--jobs must be at least 1")
      else if retries < 0 then `Error (true, "--retries must be >= 0")
      else if stop_after <> None && stop_after < Some 1 then
        `Error (true, "--stop-after-cells must be >= 1")
      else if die_cell <> None && backend <> `Proc then
        `Error (true, "--die-cell requires --backend proc")
      else begin
        match
          ( fixed_axis_error,
            hang_of hang_cell,
            cell_key_of ~flag:"--die-cell" die_cell )
        with
        | Some e, _, _ | _, Error e, _ | _, _, Error e -> `Error (true, e)
        | None, Ok (Some _), _ when cell_budget = None ->
          `Error (true, "--hang-cell requires --cell-budget")
        | None, Ok hang, Ok _ ->
          let mode = if quick then "quick" else if full then "full" else "standard" in
          let sweep = sweep_of ~quick ~full ~runs ~degrees ~seed in
          let sweep = Campaign.Sections.sweep_for section ~full sweep in
          let backend =
            match backend with
            | `Domains -> Campaign.Driver.Domains
            | `Proc ->
              Campaign.Driver.Proc
                {
                  argv =
                    worker_argv ~section_name:section.Campaign.Sections.name
                      ~mode ~runs ~degrees ~seed ~cell_budget ~hang_cell
                      ~die_cell;
                }
          in
          let cache =
            cache_of ~dir:cache_dir ~family:section.Campaign.Sections.family
              ~mode ~runs ~degrees ~seed
          in
          if Option.is_some cache then install_stop_handlers ();
          if prof then Obs.Prof.set_enabled true;
          render_result section ~out
            (run_section ~jobs ~quiet ?cell_budget ~retries ?hang ?stop_after
               ?cache ?cache_dir ~backend ~mode section sweep);
          if prof then Fmt.epr "hot scopes:@.%a" Obs.Prof.pp_report ();
          `Ok ()
      end
    in
    let term =
      Term.(
        ret
          (const action $ quick_arg $ full_arg $ jobs_arg
         $ out_arg section.Campaign.Sections.name
         $ runs_opt_arg $ degrees_opt_arg $ seed_opt_arg $ quiet_arg
         $ cell_budget_arg $ retries_arg $ hang_cell_arg $ die_cell_arg
         $ backend_arg $ cache_arg $ stop_after_arg $ prof_arg))
    in
    Cmd.v
      (Cmd.info section.Campaign.Sections.name
         ~doc:
           (Printf.sprintf "Run the %s campaign (%s)"
              section.Campaign.Sections.name section.Campaign.Sections.doc))
      term
  in
  let diff_cmd =
    let file_arg n v =
      Arg.(required & pos n (some file) None & info [] ~docv:v)
    in
    let tol_arg =
      let doc = "Absolute tolerance for float comparisons (default: exact)." in
      Arg.(value & opt float 0. & info [ "tol" ] ~docv:"EPS" ~doc)
    in
    let action a b tol =
      match (Campaign.Artifact.read ~path:a, Campaign.Artifact.read ~path:b) with
      | Error e, _ | _, Error e -> `Error (false, e)
      | Ok aa, Ok bb -> (
        match Campaign.Diff.artifacts ~tol aa bb with
        | [] ->
          Fmt.pr "identical (timing and git sha ignored)@.";
          `Ok ()
        | entries ->
          List.iter (fun e -> Fmt.pr "%a@." Campaign.Diff.pp_entry e) entries;
          `Error (false, Printf.sprintf "%d difference(s)" (List.length entries)))
    in
    let term = Term.(ret (const action $ file_arg 0 "A.json" $ file_arg 1 "B.json" $ tol_arg)) in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two campaign artifacts, ignoring timing and git sha; \
            exits non-zero when results differ")
      term
  in
  let validate_cmd =
    let file_arg =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
    in
    let action path =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error e -> `Error (false, e)
      | raw -> (
        match Obs.Json.of_string_opt raw with
        | None -> `Error (false, Printf.sprintf "%s: not valid JSON" path)
        | Some j -> (
          match Campaign.Artifact.validate j with
          | [] ->
            let v =
              match
                Option.bind (Obs.Json.member "schema_version" j) Obs.Json.to_int
              with
              | Some v -> string_of_int v
              | None -> "?"
            in
            Fmt.pr "%s: valid schema v%s artifact@." path v;
            `Ok ()
          | errs ->
            List.iter (fun e -> Fmt.pr "%s: %s@." path e) errs;
            `Error (false, Printf.sprintf "%d schema violation(s)" (List.length errs))))
    in
    let term = Term.(ret (const action $ file_arg)) in
    Cmd.v
      (Cmd.info "validate"
         ~doc:"Check a campaign artifact against the JSON schema")
      term
  in
  let show_cmd =
    let file_arg =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
    in
    let action path =
      match Campaign.Artifact.read ~path with
      | Error e -> `Error (false, e)
      | Ok artifact -> (
        match Campaign.Sections.find artifact.Campaign.Artifact.section with
        | None ->
          `Error
            ( false,
              Printf.sprintf "%s: unknown section %S" path
                artifact.Campaign.Artifact.section )
        | Some section ->
          Fmt.pr "=== %s ===@." section.Campaign.Sections.title;
          section.Campaign.Sections.render Fmt.stdout artifact;
          (match artifact_axes artifact with
          | [] -> ()
          | axes ->
            Fmt.pr "axes:   %s@."
              (String.concat " x "
                 (List.map
                    (fun (name, vals) ->
                      Printf.sprintf "%s {%s}" name (String.concat " " vals))
                    axes));
            if List.mem_assoc "frr" axes then begin
              let push xs x = if List.mem x !xs then () else xs := !xs @ [ x ] in
              let protocols = ref [] in
              List.iter
                (fun (g : Campaign.Artifact.aggregate) ->
                  push protocols g.Campaign.Artifact.a_protocol)
                artifact.Campaign.Artifact.aggregates;
              print_loss_window_summary artifact
                ~schedules:
                  (Option.value ~default:[] (List.assoc_opt "schedule" axes))
                ~protocols:!protocols
            end);
          (match artifact.Campaign.Artifact.timing with
          | None -> ()
          | Some t ->
            let n = List.length t.Campaign.Artifact.t_cells in
            let wall = t.Campaign.Artifact.t_wall_s in
            Fmt.pr "timing: %d cells in %.1f s wall (%d jobs%s)@." n wall
              t.Campaign.Artifact.t_jobs
              (if wall > 0. && n > 0 then
                 Printf.sprintf ", %.2f cells/s" (float_of_int n /. wall)
               else "");
            (match t.Campaign.Artifact.t_exec with
            | None -> ()
            | Some x ->
              Fmt.pr "exec:   %s backend, cache %d hit(s) / %d miss(es)%s@."
                x.Campaign.Artifact.x_backend
                x.Campaign.Artifact.x_cache_hits
                x.Campaign.Artifact.x_cache_misses
                (if x.Campaign.Artifact.x_backend = "proc" then
                   Printf.sprintf
                     ", %d worker spawn(s), %d restart(s), cells per worker \
                      [%s]"
                     x.Campaign.Artifact.x_spawns
                     x.Campaign.Artifact.x_restarts
                     (String.concat " "
                        (List.map string_of_int
                           x.Campaign.Artifact.x_worker_cells))
                 else ""));
            match overall_events_per_s artifact with
            | Some eps -> Fmt.pr "perf:   %.0f events/s overall@." eps
            | None -> ());
          `Ok ())
    in
    let term = Term.(ret (const action $ file_arg)) in
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Summarize a campaign artifact: re-render its section's tables and \
            report its timing, exec and perf summary")
      term
  in
  let worker_cmd =
    let section_pos =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"SECTION")
    in
    let mode_arg =
      let doc = "Sweep preset of the supervising campaign." in
      Arg.(
        value
        & opt (Arg.enum [ ("quick", "quick"); ("standard", "standard"); ("full", "full") ])
            "standard"
        & info [ "mode" ] ~docv:"MODE" ~doc)
    in
    let action section_name mode runs degrees seed cell_budget hang_cell
        die_cell =
      match Campaign.Sections.find section_name with
      | None -> `Error (false, Printf.sprintf "unknown section %S" section_name)
      | Some section -> (
        match
          (hang_of hang_cell, cell_key_of ~flag:"--die-cell" die_cell)
        with
        | Error e, _ | _, Error e -> `Error (true, e)
        | Ok hang, Ok die ->
          let quick = mode = "quick" and full = mode = "full" in
          let sweep = sweep_of ~quick ~full ~runs ~degrees ~seed in
          let sweep = Campaign.Sections.sweep_for section ~full sweep in
          let tasks = section.Campaign.Sections.tasks sweep in
          let run_cell i =
            if i < 0 || i >= Array.length tasks then
              Error (Printf.sprintf "cell index %d out of range" i)
            else begin
              let t = tasks.(i) in
              let key = Campaign.Driver.task_key t in
              (* Fault hooks mirror the in-process ones: --die-cell is the
                 crash the supervisor must absorb, --hang-cell the wedge
                 its deadline must break. *)
              if die = Some key then Unix.kill (Unix.getpid ()) Sys.sigkill;
              let hung = hang = Some key in
              let a0 = Unix.gettimeofday () in
              match Campaign.Driver.attempt_once ?cell_budget ~hung t with
              | Ok cell -> Ok (Unix.gettimeofday () -. a0, cell)
              | Error e -> Error e
            end
          in
          Campaign.Proc_backend.worker ~run_cell ())
    in
    let term =
      Term.(
        ret
          (const action $ section_pos $ mode_arg $ runs_opt_arg
         $ degrees_opt_arg $ seed_opt_arg $ cell_budget_arg $ hang_cell_arg
         $ die_cell_arg))
    in
    Cmd.v
      (Cmd.info "worker"
         ~doc:
           "(internal) Cell worker for $(b,--backend proc): speaks the \
            supervisor protocol on stdin/stdout/stderr. Not for interactive \
            use.")
      term
  in
  let perfguard_cmd =
    let file_arg n v =
      Arg.(required & pos n (some file) None & info [] ~docv:v)
    in
    let max_regression_arg =
      let doc =
        "Maximum tolerated fractional regression in overall events/s: fail \
         when CURRENT is more than this fraction slower than BASELINE \
         (default 0.30 = 30%)."
      in
      Arg.(value & opt float 0.30 & info [ "max-regression" ] ~docv:"FRAC" ~doc)
    in
    let action base_path cur_path max_regression =
      if max_regression < 0. then
        `Error (true, "--max-regression must be >= 0")
      else
        match
          ( Campaign.Artifact.read ~path:base_path,
            Campaign.Artifact.read ~path:cur_path )
        with
        | Error e, _ | _, Error e -> `Error (false, e)
        | Ok base, Ok cur -> (
          match (overall_events_per_s base, overall_events_per_s cur) with
          | None, _ ->
            `Error
              ( false,
                base_path ^ ": no perf measurements in the timing section" )
          | _, None ->
            `Error
              (false, cur_path ^ ": no perf measurements in the timing section")
          | Some b, Some c ->
            let change = (c -. b) /. b in
            Fmt.pr "baseline: %.0f events/s (%s)@." b base_path;
            Fmt.pr "current:  %.0f events/s (%s, %+.1f%%)@." c cur_path
              (100. *. change);
            if c < b *. (1. -. max_regression) then
              `Error
                ( false,
                  Printf.sprintf
                    "events/s regressed %.1f%% (more than the %.0f%% allowed)"
                    (-100. *. change)
                    (100. *. max_regression) )
            else `Ok ())
    in
    let term =
      Term.(
        ret
          (const action $ file_arg 0 "BASELINE.json" $ file_arg 1 "CURRENT.json"
         $ max_regression_arg))
    in
    Cmd.v
      (Cmd.info "perfguard"
         ~doc:
           "Compare the overall events/s of two perf artifacts and exit \
            non-zero when the current one regressed beyond the allowed \
            fraction. Timing numbers are machine-dependent: guard against \
            baselines recorded on comparable hardware (e.g. the same CI \
            runner class)")
      term
  in
  let info =
    Cmd.info "campaign"
      ~doc:
        "Parallel experiment campaigns: run a section as independent \
         (protocol, degree, seed) cells on a domain pool, merge \
         deterministically, and write a versioned BENCH_<section>.json \
         artifact"
  in
  Cmd.group info
    (List.map section_cmd Campaign.Sections.all
    @ [ diff_cmd; validate_cmd; show_cmd; worker_cmd; perfguard_cmd ])

let () =
  let doc =
    "packet delivery during routing convergence (reproduction of Pei et al., DSN 2003)"
  in
  let info = Cmd.info "rcsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            fig_cmd;
            topo_cmd;
            anatomy_cmd;
            compare_cmd;
            loops_cmd;
            trace_cmd;
            fuzz_cmd;
            perf_cmd;
            campaign_cmd;
          ]))
