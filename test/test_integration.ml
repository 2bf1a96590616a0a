(* End-to-end scenario tests: full simulations on the quick configuration,
   checking packet conservation, determinism, steady-state delivery, and the
   runner's failure machinery for every protocol engine. *)

module M = Convergence.Metrics

let quick = Convergence.Config.quick

let engines = Convergence.Engine_registry.all

let run_quick ?(seed = 1) ?degree engine =
  let cfg =
    match degree with
    | Some d -> Convergence.Config.with_degree d { quick with seed }
    | None -> { quick with seed }
  in
  Convergence.Engine_registry.run cfg engine

let for_all_engines f =
  List.iter (fun e -> f (Convergence.Engine_registry.name e) e) engines

let test_packet_conservation () =
  for_all_engines (fun name e ->
      let f = One_flow.get (run_quick e) in
      if M.flow_in_flight f < 0 then
        Alcotest.failf "%s: sent=%d delivered=%d drops=%d (negative in-flight)" name
          f.M.f_sent f.M.f_delivered (M.flow_total_drops f);
      (* At the end of a quiet period, at most a couple of packets can still
         sit in queues/flight. *)
      let residue = M.flow_in_flight f in
      if residue > 10 then Alcotest.failf "%s: %d packets unaccounted" name residue)

let test_sent_count_matches_rate () =
  for_all_engines (fun name e ->
      let f = One_flow.get (run_quick e) in
      let expected =
        quick.Convergence.Config.send_rate_pps
        *. (quick.Convergence.Config.sim_end -. quick.Convergence.Config.traffic_start)
      in
      let got = float_of_int f.M.f_sent in
      if abs_float (got -. expected) > 2. then
        Alcotest.failf "%s: sent %f, expected ~%f" name got expected)

let test_failure_is_injected () =
  for_all_engines (fun name e ->
      let m = run_quick e in
      match m.M.m_failed_links with
      | [ (u, v) ] ->
        if u = v then Alcotest.failf "%s: degenerate failed link" name;
        (* The failed link must lie on the pre-failure forwarding path. *)
        let rec adjacent_in_path = function
          | a :: (b :: _ as rest) ->
            (a = u && b = v) || (a = v && b = u) || adjacent_in_path rest
          | [ _ ] | [] -> false
        in
        Alcotest.(check bool)
          (name ^ ": failed link on path")
          true
          (adjacent_in_path (One_flow.get m).M.f_pre_failure_path)
      | _ -> Alcotest.failf "%s: not exactly one failure recorded" name)

let test_delivery_resumes_after_failure () =
  for_all_engines (fun name e ->
      let f = One_flow.get (run_quick e) in
      if not f.M.f_final_path_complete then
        Alcotest.failf "%s: no final path" name;
      (* The last 10 seconds of the run must be at (nearly) full rate. *)
      let tput = f.M.f_throughput in
      let buckets = Dessim.Series.buckets tput in
      let tail_rate = Dessim.Series.rate tput (buckets - 2) in
      if tail_rate < 45. then
        Alcotest.failf "%s: tail throughput %.1f < 45 pps" name tail_rate)

let test_full_rate_before_failure () =
  for_all_engines (fun name e ->
      let f = One_flow.get (run_quick e) in
      (* quick: warmup=320, failure=330; bucket at normalized t=3..4 is
         pre-failure and must carry the full 50 pps. *)
      let tput = f.M.f_throughput in
      let rate = Dessim.Series.rate tput 3 in
      if rate < 49. || rate > 51. then
        Alcotest.failf "%s: pre-failure rate %.1f" name rate)

let test_determinism () =
  for_all_engines (fun name e ->
      let a = run_quick ~seed:7 e in
      let b = run_quick ~seed:7 e in
      let key (m : M.multi) =
        let f = One_flow.get m in
        ( f.M.f_sent,
          f.M.f_delivered,
          M.flow_total_drops f,
          f.M.f_fwd_convergence,
          m.M.m_routing_convergence,
          f.M.f_final_path )
      in
      if key a <> key b then Alcotest.failf "%s: nondeterministic" name)

let test_seeds_differ () =
  (* Different seeds must (in general) pick different src/dst/failures. *)
  let distinct = ref false in
  for seed = 1 to 5 do
    let scenario (m : M.multi) =
      let f = One_flow.get m in
      (f.M.f_src, f.M.f_dst, m.M.m_failed_links)
    in
    let a = run_quick ~seed Convergence.Engine_registry.dbf in
    let b = run_quick ~seed:(seed + 50) Convergence.Engine_registry.dbf in
    if scenario a <> scenario b then distinct := true
  done;
  Alcotest.(check bool) "some variety across seeds" true !distinct

let test_pinned_failure_link () =
  let cfg = { quick with seed = 3 } in
  (* Pin both endpoints and the failed link for a fully controlled scenario. *)
  let m =
    Convergence.Engine_registry.run ~src:0 ~dst:24 ~fail_link:(0, 1) cfg
      Convergence.Engine_registry.dbf
  in
  let f = One_flow.get m in
  Alcotest.(check (list (pair int int))) "pinned" [ (0, 1) ] m.M.m_failed_links;
  Alcotest.(check int) "src" 0 f.M.f_src;
  Alcotest.(check int) "dst" 24 f.M.f_dst

let test_restore_after () =
  (* Fail the first-hop link and restore it 20 s later: the pre-failure
     shortest path must be back in force at the end. *)
  let cfg = { quick with seed = 3 } in
  let f =
    One_flow.get
      (Convergence.Engine_registry.run ~src:0 ~dst:24 ~fail_link:(0, 1)
         ~restore_after:20. cfg Convergence.Engine_registry.dbf)
  in
  Alcotest.(check bool) "delivers at end" true f.M.f_final_path_complete;
  (* With the link restored, the final path length equals the topological
     shortest distance again. *)
  let topo = Netsim.Mesh.generate ~rows:5 ~cols:5 ~degree:4 in
  let dist = (Netsim.Topology.bfs_distances topo 0).(24) in
  Alcotest.(check int) "shortest again" dist
    (List.length f.M.f_final_path - 1)

let test_heal_before_detection () =
  (* A failure that heals before the detection delay must be invisible to
     routing: every protocol still converges to the oracle's shortest paths
     on the intact topology. Detecting the healed link anyway would take it
     down for good, with no link-up to follow. *)
  let cfg = { quick with seed = 3 } in
  List.iter
    (fun engine ->
      let name = Convergence.Engine_registry.name engine in
      let max_metric =
        match name with
        | "RIP" | "DBF" ->
          Some Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric
        | _ -> None
      in
      let mismatches = ref None in
      ignore
        (Convergence.Engine_registry.run ~src:0 ~dst:24 ~fail_link:(0, 1)
           ~restore_after:0.2
           ~on_quiesce:(fun view ->
             mismatches := Some (Check.Oracle.check ?max_metric view))
           cfg engine);
      match !mismatches with
      | None -> Alcotest.failf "%s: on_quiesce never ran" name
      | Some ms ->
        Alcotest.(check int) (name ^ ": oracle mismatches") 0 (List.length ms))
    Convergence.Engine_registry.paper_four

let test_events_fire () =
  let cfg = { quick with seed = 2 } in
  let failures = ref [] in
  let path_changes = ref 0 in
  let route_changes = ref 0 in
  let collect (r : Obs.Sink.record) =
    match r.event with
    | Obs.Event.Link_failed { u; v } -> failures := (r.time, (u, v)) :: !failures
    | Obs.Event.Path_changed _ -> incr path_changes
    | Obs.Event.Route_changed _ -> incr route_changes
    | _ -> ()
  in
  let trace =
    Obs.Trace.create ~categories:[ Obs.Event.Env ] (Obs.Sink.callback collect)
  in
  ignore (Convergence.Engine_registry.run ~trace cfg Convergence.Engine_registry.dbf);
  Alcotest.(check int) "one failure" 1 (List.length !failures);
  (match !failures with
  | [ (t, _) ] ->
    Alcotest.(check (float 1e-9)) "at failure_time" cfg.Convergence.Config.failure_time t
  | _ -> ());
  Alcotest.(check bool) "route changes observed" true (!route_changes > 0);
  Alcotest.(check bool) "path sampled" true (!path_changes > 0)

let test_custom_topology () =
  (* Run on a ring instead of a mesh. *)
  let topo = Netsim.Topology.create ~nodes:8
      ~edges:((7, 0) :: List.init 7 (fun i -> (i, i + 1)))
  in
  let cfg = { quick with seed = 1 } in
  let f =
    One_flow.get
      (Convergence.Engine_registry.run ~topology:topo ~src:0 ~dst:4 cfg
         Convergence.Engine_registry.bgp3)
  in
  Alcotest.(check bool) "delivered some" true (f.M.f_delivered > 0);
  Alcotest.(check bool) "final path ok" true f.M.f_final_path_complete

let test_invalid_config_rejected () =
  let cfg = { quick with sim_end = 0. } in
  (match Convergence.Engine_registry.run cfg Convergence.Engine_registry.dbf with
  | (_ : M.multi) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ())

let test_rip_recovers_within_period () =
  (* RIP's recovery is bounded by the periodic interval: 50 s after the
     failure (bucket 60, i.e. failure-normalized +50 s) the flow must be
     fully restored. *)
  let f = One_flow.get (run_quick ~seed:4 Convergence.Engine_registry.rip) in
  let tput = f.M.f_throughput in
  let rate_at_60 = Dessim.Series.rate tput 60 in
  if rate_at_60 < 45. then
    Alcotest.failf "RIP not recovered: %.1f pps 50 s after failure" rate_at_60

let test_ctrl_traffic_counted () =
  for_all_engines (fun name e ->
      let m = run_quick e in
      if m.M.m_ctrl_messages <= 0 then
        Alcotest.failf "%s: no control messages counted" name;
      if m.M.m_ctrl_bytes <= 0 then
        Alcotest.failf "%s: no control bytes counted" name)

let test_bgp_sends_fewer_ctrl_bytes_than_rip () =
  (* Incremental updates vs periodic full tables. *)
  let rip = run_quick Convergence.Engine_registry.rip in
  let bgp = run_quick Convergence.Engine_registry.bgp3 in
  Alcotest.(check bool) "bgp bytes < rip bytes" true
    (bgp.M.m_ctrl_bytes < rip.M.m_ctrl_bytes)

let prop_conservation_random_scenarios =
  QCheck.Test.make ~name:"packet conservation over random seeds/degrees" ~count:12
    QCheck.(pair (1 -- 500) (3 -- 8))
    (fun (raw_seed, raw_degree) ->
      (* Clamp: QCheck's shrinker can step outside the generator's range. *)
      let seed = 1 + abs raw_seed in
      let degree = 3 + (abs raw_degree mod 6) in
      let cfg = Convergence.Config.with_degree degree { quick with seed } in
      let f =
        One_flow.get (Convergence.Engine_registry.run cfg Convergence.Engine_registry.dbf)
      in
      let in_flight = M.flow_in_flight f in
      in_flight >= 0 && in_flight <= 10)

let () =
  Alcotest.run "integration"
    [
      ( "accounting",
        [
          Alcotest.test_case "conservation" `Quick test_packet_conservation;
          Alcotest.test_case "sent matches rate" `Quick test_sent_count_matches_rate;
          Alcotest.test_case "ctrl counted" `Quick test_ctrl_traffic_counted;
          Alcotest.test_case "bgp leaner than rip" `Quick
            test_bgp_sends_fewer_ctrl_bytes_than_rip;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_conservation_random_scenarios ] );
      ( "scenario",
        [
          Alcotest.test_case "failure injected" `Quick test_failure_is_injected;
          Alcotest.test_case "delivery resumes" `Quick test_delivery_resumes_after_failure;
          Alcotest.test_case "full rate pre-failure" `Quick test_full_rate_before_failure;
          Alcotest.test_case "rip periodic recovery" `Quick test_rip_recovers_within_period;
          Alcotest.test_case "pinned failure" `Quick test_pinned_failure_link;
          Alcotest.test_case "restore" `Quick test_restore_after;
          Alcotest.test_case "heal before detection" `Quick test_heal_before_detection;
          Alcotest.test_case "custom topology" `Quick test_custom_topology;
          Alcotest.test_case "events" `Quick test_events_fire;
          Alcotest.test_case "invalid config" `Quick test_invalid_config_rejected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same run" `Quick test_determinism;
          Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
        ] );
    ]
