(* The check subsystem: invariant monitors, the differential oracle, and the
   fuzz harness — including "teeth" tests that feed each one a deliberately
   broken input and require it to object. *)

let mesh33 = Netsim.Mesh.generate ~rows:3 ~cols:3 ~degree:4

(* ---------- monitor: clean streams pass ---------- *)

let record time seq event = { Obs.Sink.time; seq; event }

let feed mon events =
  let sink = Check.Monitor.sink mon in
  List.iteri (fun i (t, ev) -> sink.Obs.Sink.emit (record t i ev)) events

let kinds mon =
  List.map (fun v -> v.Check.Monitor.v_kind) (Check.Monitor.finish mon)

(* A correct little story: packet 0 goes 0 -> 1 -> 2 and is delivered. *)
let clean_story =
  [
    (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 2 });
    (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 127 });
    (1.2, Obs.Event.Packet_forwarded { pkt = 0; node = 1; next_hop = 2; ttl = 126 });
    (1.3, Obs.Event.Packet_delivered { flow = 0; pkt = 0; delay = 0.3; looped = false });
  ]

let test_monitor_clean () =
  let mon = Check.Monitor.create ~initial_ttl:127 ~topo:mesh33 () in
  feed mon clean_story;
  Alcotest.(check (list reject)) "no violations" [] (kinds mon);
  Alcotest.(check int) "nothing in flight" 0 (Check.Monitor.in_flight mon)

let test_monitor_tolerates_in_flight () =
  let mon = Check.Monitor.create ~topo:mesh33 () in
  feed mon
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 2 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 9 });
    ];
  Alcotest.(check (list reject)) "truncated run is fine" [] (kinds mon);
  Alcotest.(check int) "one packet outstanding" 1 (Check.Monitor.in_flight mon)

let test_monitor_anonymous_packets () =
  (* Transport ACKs are forwarded without a Packet_sent announcement; hop
     invariants still apply to them, terminations do not. *)
  let mon = Check.Monitor.create ~topo:mesh33 () in
  feed mon
    [
      (1.0, Obs.Event.Packet_forwarded { pkt = 7; node = 2; next_hop = 1; ttl = 64 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 7; node = 1; next_hop = 0; ttl = 63 });
    ];
  Alcotest.(check (list reject)) "anonymous hops are legal" [] (kinds mon)

(* ---------- monitor: teeth ---------- *)

let kind = Alcotest.testable (Fmt.of_to_string Check.Monitor.string_of_kind) ( = )

let expect_kinds name story expected =
  let mon = Check.Monitor.create ~initial_ttl:127 ~topo:mesh33 () in
  feed mon story;
  Alcotest.(check (list kind)) name expected (kinds mon)

let test_double_delivery () =
  expect_kinds "second delivery flagged"
    (clean_story
    @ [ (1.4, Obs.Event.Packet_delivered { flow = 0; pkt = 0; delay = 0.4; looped = false }) ])
    [ Check.Monitor.Unknown_termination ]

let test_unsent_drop () =
  expect_kinds "dropping an unknown id flagged"
    [
      ( 1.0,
        Obs.Event.Packet_dropped
          { flow = 0; pkt = 42; reason = Netsim.Types.No_route; looped = false } );
    ]
    [ Check.Monitor.Unknown_termination ]

let test_duplicate_send () =
  expect_kinds "reused packet id flagged"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 2 });
      (1.1, Obs.Event.Packet_sent { flow = 1; pkt = 0; src = 3; dst = 5 });
    ]
    [ Check.Monitor.Duplicate_send ]

let test_non_neighbor_hop () =
  (* 0 and 8 are opposite corners of the 3x3 mesh: no link. *)
  expect_kinds "teleporting across the mesh flagged"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 8 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 8; ttl = 127 });
    ]
    [ Check.Monitor.Non_neighbor_hop ]

let test_ttl_not_decrementing () =
  expect_kinds "constant ttl flagged"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 2 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 127 });
      (1.2, Obs.Event.Packet_forwarded { pkt = 0; node = 1; next_hop = 2; ttl = 127 });
    ]
    [ Check.Monitor.Ttl_violation ]

let test_teleport () =
  expect_kinds "hop starting where the packet is not flagged"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 8 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 127 });
      (1.2, Obs.Event.Packet_forwarded { pkt = 0; node = 4; next_hop = 5; ttl = 126 });
    ]
    [ Check.Monitor.Teleport ]

let test_wrong_delivery_node () =
  expect_kinds "delivery away from the destination flagged"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 2 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 3; ttl = 127 });
      (1.2, Obs.Event.Packet_delivered { flow = 0; pkt = 0; delay = 0.2; looped = false });
    ]
    [ Check.Monitor.Wrong_delivery_node ]

let test_non_neighbor_ctrl () =
  expect_kinds "control message between non-adjacent routers flagged"
    [
      ( 1.0,
        Obs.Event.Ctrl_received
          { proto = "RIP"; src = 0; dst = 8; kind = Obs.Event.Mixed } );
    ]
    [ Check.Monitor.Non_neighbor_ctrl ]

(* ---------- monitor: fast-reroute discipline ---------- *)

let test_frr_hop_clean () =
  (* A backup hop is a real hop: it advances the packet and decrements the
     TTL, and a legal one raises nothing. *)
  expect_kinds "legal backup forwarding is clean"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 2 });
      (1.1, Obs.Event.Frr_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 127 });
      (1.2, Obs.Event.Packet_forwarded { pkt = 0; node = 1; next_hop = 2; ttl = 126 });
      (1.3, Obs.Event.Packet_delivered { flow = 0; pkt = 0; delay = 0.3; looped = false });
    ]
    []

let test_frr_revisit () =
  expect_kinds "backup forwarding to a visited node flagged"
    [
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 8 });
      (1.1, Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 127 });
      (1.2, Obs.Event.Frr_forwarded { pkt = 0; node = 1; next_hop = 0; ttl = 126 });
    ]
    [ Check.Monitor.Frr_revisit ]

let test_frr_failed_link () =
  expect_kinds "backup forwarding across a failed link flagged"
    [
      (0.5, Obs.Event.Link_failed { u = 2; v = 1 });
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 1; dst = 8 });
      (1.1, Obs.Event.Frr_forwarded { pkt = 0; node = 1; next_hop = 2; ttl = 127 });
    ]
    [ Check.Monitor.Frr_failed_link ]

let test_frr_healed_link_legal () =
  expect_kinds "backup forwarding across a healed link is clean"
    [
      (0.5, Obs.Event.Link_failed { u = 1; v = 2 });
      (0.9, Obs.Event.Link_healed { u = 1; v = 2 });
      (1.0, Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 1; dst = 8 });
      (1.1, Obs.Event.Frr_forwarded { pkt = 0; node = 1; next_hop = 2; ttl = 127 });
    ]
    []

(* ---------- monitor on a real run ---------- *)

let quick_cfg =
  {
    Convergence.Config.quick with
    rows = 3;
    cols = 3;
    send_rate_pps = 20.;
    traffic_start = 30.;
    warmup = 30.;
    failure_time = 35.;
    sim_end = 100.;
    seed = 11;
  }

let run_with_checks ?on_quiesce engine =
  let topo =
    Netsim.Mesh.generate ~rows:quick_cfg.Convergence.Config.rows
      ~cols:quick_cfg.Convergence.Config.cols
      ~degree:quick_cfg.Convergence.Config.degree
  in
  let mon =
    Check.Monitor.create ~initial_ttl:quick_cfg.Convergence.Config.ttl ~topo ()
  in
  let r =
    Convergence.Engine_registry.run ~monitors:[ Check.Monitor.sink mon ]
      ?on_quiesce quick_cfg engine
  in
  (mon, r)

let test_real_runs_hold_invariants () =
  List.iter
    (fun engine ->
      let mon, _ = run_with_checks engine in
      Alcotest.(check int)
        (Convergence.Engine_registry.name engine ^ " run is violation-free")
        0
        (List.length (Check.Monitor.finish mon)))
    Convergence.Engine_registry.paper_four

(* ---------- oracle ---------- *)

let view_of_tables topo ~next_hop ~metric =
  {
    Convergence.Runner.rv_topology = topo;
    rv_next_hop = (fun ~src ~dst -> next_hop src dst);
    rv_metric = (fun ~src ~dst -> metric src dst);
    rv_backup = None;
  }

(* A synthetic, perfectly converged view: BFS tables computed right here. *)
let perfect_view topo =
  let n = Netsim.Topology.node_count topo in
  let dist = Array.init n (fun dst -> Netsim.Topology.bfs_distances topo dst) in
  view_of_tables topo
    ~metric:(fun src dst ->
      if dist.(dst).(src) = max_int then None else Some dist.(dst).(src))
    ~next_hop:(fun src dst ->
      if dist.(dst).(src) = max_int then None
      else
        List.find_opt
          (fun h -> dist.(dst).(h) = dist.(dst).(src) - 1)
          (Netsim.Topology.neighbors topo src))

let test_oracle_accepts_perfect_tables () =
  Alcotest.(check int) "no mismatches" 0
    (List.length (Check.Oracle.check (perfect_view mesh33)))

let test_oracle_max_metric () =
  (* With max_metric 2, any destination >= 2 hops away must be unrouted; the
     perfect tables still route them, so every such pair is a mismatch. *)
  let mismatches = Check.Oracle.check ~max_metric:2 (perfect_view mesh33) in
  let far_pairs =
    List.length
      (List.filter
         (fun m ->
           match m.Check.Oracle.m_kind with
           | Check.Oracle.Unreachable_but_routed _ -> true
           | _ -> false)
         mismatches)
  in
  Alcotest.(check bool) "far pairs rejected" true (far_pairs > 0);
  Alcotest.(check int) "nothing else rejected" far_pairs (List.length mismatches)

let test_oracle_teeth () =
  let ideal = perfect_view mesh33 in
  let broken_metric =
    view_of_tables mesh33
      ~metric:(fun src dst ->
        ideal.Convergence.Runner.rv_metric ~src ~dst
        |> Option.map (fun m -> if src = 0 && dst = 8 then m + 1 else m))
      ~next_hop:(fun src dst -> ideal.Convergence.Runner.rv_next_hop ~src ~dst)
  in
  (match Check.Oracle.check broken_metric with
  | [ { Check.Oracle.m_src = 0; m_dst = 8; m_kind = Check.Oracle.Wrong_metric _ } ] -> ()
  | ms ->
    Alcotest.failf "expected one wrong-metric mismatch, got %a"
      Fmt.(Dump.list Check.Oracle.pp_mismatch)
      ms);
  let black_hole =
    view_of_tables mesh33
      ~metric:(fun src dst ->
        if src = 4 then None else ideal.Convergence.Runner.rv_metric ~src ~dst)
      ~next_hop:(fun src dst ->
        if src = 4 then None else ideal.Convergence.Runner.rv_next_hop ~src ~dst)
  in
  Alcotest.(check int) "a silent black hole is 8 missing routes" 8
    (List.length (Check.Oracle.check black_hole) / 2)
    (* each pair reports both Wrong_metric and Reachable_but_unrouted *);
  let looping =
    (* 1 claims dst 2 is behind 0: a next hop that is not closer. *)
    view_of_tables mesh33
      ~metric:(fun src dst -> ideal.Convergence.Runner.rv_metric ~src ~dst)
      ~next_hop:(fun src dst ->
        if src = 1 && dst = 2 then Some 0
        else ideal.Convergence.Runner.rv_next_hop ~src ~dst)
  in
  match Check.Oracle.check looping with
  | [ { Check.Oracle.m_kind = Check.Oracle.Non_shortest_next_hop _; _ } ] -> ()
  | ms ->
    Alcotest.failf "expected one non-shortest mismatch, got %a"
      Fmt.(Dump.list Check.Oracle.pp_mismatch)
      ms

(* BGP's 30 s MRAI needs a few rounds on either side of the failure; the
   tight monitor schedule above is not enough for its tables to settle. *)
let converged_cfg =
  {
    quick_cfg with
    traffic_start = 300.;
    warmup = 300.;
    failure_time = 310.;
    sim_end = 700.;
  }

let test_oracle_on_converged_runs () =
  (* Every paper protocol, run well past convergence, must match the oracle
     exactly at quiescence. *)
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
      let _ =
        Convergence.Engine_registry.run
          ~on_quiesce:(fun view ->
            mismatches := Some (Check.Oracle.check ?max_metric view))
          converged_cfg engine
      in
      match !mismatches with
      | None -> Alcotest.failf "%s: on_quiesce never ran" name
      | Some [] -> ()
      | Some ms ->
        Alcotest.failf "%s: %a" name Fmt.(Dump.list Check.Oracle.pp_mismatch) ms)
    Convergence.Engine_registry.paper_four

(* ---------- oracle: fast-reroute backups ---------- *)

let with_backup view backup =
  { view with Convergence.Runner.rv_backup = Some (fun ~src ~dst -> backup src dst) }

let frr_kinds ms =
  List.map (fun m -> m.Check.Oracle.m_kind) ms

let test_oracle_frr_matches_frr_module () =
  (* Differential: the backups the Frr module computes from perfect tables
     must satisfy the oracle's independent BFS re-derivation — and leave no
     cell the oracle considers coverable without a backup. *)
  let view = perfect_view mesh33 in
  let n = Netsim.Topology.node_count mesh33 in
  let f = Frr.create mesh33 in
  for dst = 0 to n - 1 do
    Frr.mark_dirty f ~dst
  done;
  ignore (Frr.arm_sweep f);
  Frr.sweep f
    ~metric:(fun ~node ~dst -> view.Convergence.Runner.rv_metric ~src:node ~dst)
    ~next_hop:(fun ~node ~dst -> view.Convergence.Runner.rv_next_hop ~src:node ~dst)
    ~on_install:(fun ~node:_ ~dst:_ ~backup:_ -> ());
  let v = with_backup view (fun src dst -> Frr.backup f ~node:src ~dst) in
  Alcotest.(check int) "frr table passes the oracle" 0
    (List.length (Check.Oracle.check_frr v))

let test_oracle_frr_skipped_without_backups () =
  Alcotest.(check int) "no backup view, no frr mismatches" 0
    (List.length (Check.Oracle.check_frr (perfect_view mesh33)))

let test_oracle_frr_teeth () =
  let view = perfect_view mesh33 in
  (* echoing the primary as its own backup *)
  let as_primary =
    with_backup view (fun src dst -> view.Convergence.Runner.rv_next_hop ~src ~dst)
  in
  let ms = Check.Oracle.check_frr as_primary in
  Alcotest.(check bool) "primary-as-backup flagged" true (ms <> []);
  List.iter
    (function
      | Check.Oracle.Frr_backup_is_primary _ -> ()
      | k ->
        Alcotest.failf "unexpected kind %a" Check.Oracle.pp_mismatch
          { Check.Oracle.m_src = 0; m_dst = 0; m_kind = k })
    (frr_kinds ms);
  (* a backup that is not even a neighbor *)
  let teleporting =
    with_backup view (fun src dst ->
        if src = 0 && dst = 2 then Some 8 else None)
  in
  Alcotest.(check bool) "non-neighbor backup flagged" true
    (List.exists
       (function Check.Oracle.Frr_invalid_backup _ -> true | _ -> false)
       (frr_kinds (Check.Oracle.check_frr teleporting)));
  (* a neighbor that fails the loop-free inequality: for 0 -> 2 the detour
     via 3 is as long as going back (dist(3,2) = 3 = 1 + dist(0,2)) *)
  let looping_backup =
    with_backup view (fun src dst ->
        if src = 0 && dst = 2 then Some 3 else None)
  in
  Alcotest.(check bool) "non-loop-free backup flagged" true
    (List.exists
       (function Check.Oracle.Frr_not_loop_free _ -> true | _ -> false)
       (frr_kinds (Check.Oracle.check_frr looping_backup)));
  (* an empty table where alternates exist: e.g. 0 -> 4 is coverable via 3 *)
  let empty = with_backup view (fun _ _ -> None) in
  let ms = Check.Oracle.check_frr empty in
  Alcotest.(check bool) "missing backups flagged" true (ms <> []);
  List.iter
    (function
      | Check.Oracle.Frr_missing_backup _ -> ()
      | k ->
        Alcotest.failf "unexpected kind %a" Check.Oracle.pp_mismatch
          { Check.Oracle.m_src = 0; m_dst = 0; m_kind = k })
    (frr_kinds ms)

(* ---------- fast reroute on a real run ---------- *)

(* A 7x7 degree-4 mesh with the paper's single mid-path failure: RIP's slow
   detection leaves a long no-route window that precomputed backups should
   mostly cover. Both arms must stay violation-free under the full monitor,
   including the FRR hop discipline. *)
let frr_cfg =
  {
    Convergence.Config.quick with
    rows = 7;
    cols = 7;
    degree = 4;
    send_rate_pps = 50.;
    traffic_start = 60.;
    warmup = 70.;
    failure_time = 80.;
    sim_end = 200.;
    seed = 3;
  }

let frr_arm ~frr =
  let topo =
    Netsim.Mesh.generate ~rows:frr_cfg.Convergence.Config.rows
      ~cols:frr_cfg.Convergence.Config.cols
      ~degree:frr_cfg.Convergence.Config.degree
  in
  let mon =
    Check.Monitor.create ~initial_ttl:frr_cfg.Convergence.Config.ttl ~topo ()
  in
  let r =
    Convergence.Engine_registry.run ~frr ~monitors:[ Check.Monitor.sink mon ]
      frr_cfg Convergence.Engine_registry.rip
  in
  ( List.length (Check.Monitor.finish mon),
    (One_flow.get r).Convergence.Metrics.f_drops_no_route )

let test_frr_run_reduces_drops () =
  let violations_off, drops_off = frr_arm ~frr:false in
  let violations_on, drops_on = frr_arm ~frr:true in
  Alcotest.(check int) "frr-off run is violation-free" 0 violations_off;
  Alcotest.(check int) "frr-on run is violation-free" 0 violations_on;
  Alcotest.(check bool)
    (Printf.sprintf "backups reduce no-route drops (%d -> %d)" drops_off drops_on)
    true
    (drops_on < drops_off)

let test_frr_run_deterministic () =
  let _, a = frr_arm ~frr:true in
  let _, b = frr_arm ~frr:true in
  Alcotest.(check int) "frr-on runs are reproducible" a b

(* ---------- the injected-bug demo ---------- *)

(* RIP with failure detection ripped out: the router next to the broken link
   keeps forwarding into it, and at quiescence its table still disagrees with
   shortest paths on the surviving topology. The differential oracle must
   catch this class of bug (the monitor cannot — the packets themselves still
   hop along real links). *)
module Blind_rip = struct
  include Protocols.Rip

  let on_link_down _ ~neighbor:_ = ()
end

let test_oracle_catches_blind_rip () =
  let blind_rip =
    Convergence.Engine_registry.Engine
      ((module Blind_rip), Protocols.Rip.default_config, "blind-rip")
  in
  let mismatches = ref [] in
  let _ =
    Convergence.Engine_registry.run
      ~on_quiesce:(fun view ->
        mismatches :=
          Check.Oracle.check
            ~max_metric:
              Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric
            view)
      quick_cfg blind_rip
  in
  Alcotest.(check bool)
    "oracle reports stale routes into the failed link" true
    (!mismatches <> [])

(* ---------- fuzz harness ---------- *)

let test_fuzz_deterministic () =
  let g = QCheck2.Gen.generate ~n:5 ~rand:(Random.State.make [| 7 |]) Check.Fuzz.scenario_gen in
  let h = QCheck2.Gen.generate ~n:5 ~rand:(Random.State.make [| 7 |]) Check.Fuzz.scenario_gen in
  Alcotest.(check (list string))
    "same seed, same scenarios"
    (List.map Check.Fuzz.show_scenario g)
    (List.map Check.Fuzz.show_scenario h)

let test_fuzz_failures_never_partition () =
  (* For any scenario, the resolved schedule keeps the network connected even
     with every failed link removed simultaneously. *)
  List.iter
    (fun sc ->
      let topo = Check.Fuzz.topology_of sc.Check.Fuzz.topo in
      Alcotest.(check bool) "connected" true (Netsim.Topology.is_connected topo))
    (QCheck2.Gen.generate ~n:25 ~rand:(Random.State.make [| 3 |])
       Check.Fuzz.scenario_gen)

let test_fuzz_regression_bgp_lossy_heal () =
  (* Shrunk by [rcsim fuzz --runs 100 --seed 1234 -p bgp] (ROADMAP item 6).
     Node 16's only neighbor is 14; a burst 14 sent while link 4-12 was down
     lost one segment to the 9% control loss, stranding the rest — including
     the post-heal shortest-path update — in 16's reorder buffer. The
     cumulative ACK that finally covered them fed multi-minute
     (send -> ack) spans into the RTO estimator, pinning the RTO at rto_max
     (60 s); the last retransmission before sim_end was lost and 16 kept a
     stale 5-hop path to 12 against the oracle's 3. Fixed by timing only the
     gap-filling segment and collapsing backoff on forward progress
     (lib/fault/rtx.ml); this scenario pins the whole arc end to end. *)
  let sc =
    Check.Fuzz.
      {
        topo = Waxman { nodes = 20; tseed = 4479 };
        flows = [ (0, 0) ];
        rate = 2;
        cfg_seed = 28385;
        failures =
          [
            { fail_dt = 11; pick = 4030; heal = Some 18 };
            { fail_dt = 11; pick = 5385; heal = None };
            { fail_dt = 28; pick = 8007; heal = Some 10 };
          ];
        loss_pct = 9;
        flap = None;
        dv_period = 20;
        dv_damp_max = 2;
        mrai_pct = 70;
        frr = false;
      }
  in
  List.iter
    (fun proto ->
      let o = Check.Fuzz.run_scenario ~proto sc in
      (match o.Check.Fuzz.o_mismatches with
      | [] -> ()
      | ms ->
        Alcotest.failf "%s: %d oracle mismatch(es), first: %a" proto
          (List.length ms) Check.Oracle.pp_mismatch (List.hd ms));
      Alcotest.(check bool) (proto ^ " holds invariants") true
        (Check.Fuzz.ok o))
    [ "bgp"; "bgp-3" ]

let test_fuzz_smoke () =
  match Check.Fuzz.check ~proto:"RIP" ~runs:3 ~seed:5 with
  | Check.Fuzz.Passed { runs } -> Alcotest.(check int) "ran all" 3 runs
  | Check.Fuzz.Failed { counterexample; _ } ->
    Alcotest.failf "fuzz failed on %a" Check.Fuzz.pp_scenario counterexample
  | Check.Fuzz.Crashed { message; _ } -> Alcotest.failf "fuzz crashed: %s" message

let () =
  Alcotest.run "check"
    [
      ( "monitor",
        [
          Alcotest.test_case "clean story" `Quick test_monitor_clean;
          Alcotest.test_case "in-flight at end is fine" `Quick
            test_monitor_tolerates_in_flight;
          Alcotest.test_case "anonymous packets" `Quick
            test_monitor_anonymous_packets;
          Alcotest.test_case "double delivery" `Quick test_double_delivery;
          Alcotest.test_case "unsent drop" `Quick test_unsent_drop;
          Alcotest.test_case "duplicate send" `Quick test_duplicate_send;
          Alcotest.test_case "non-neighbor hop" `Quick test_non_neighbor_hop;
          Alcotest.test_case "ttl must decrement" `Quick
            test_ttl_not_decrementing;
          Alcotest.test_case "teleport" `Quick test_teleport;
          Alcotest.test_case "wrong delivery node" `Quick
            test_wrong_delivery_node;
          Alcotest.test_case "non-neighbor ctrl" `Quick test_non_neighbor_ctrl;
          Alcotest.test_case "legal frr hop" `Quick test_frr_hop_clean;
          Alcotest.test_case "frr revisit" `Quick test_frr_revisit;
          Alcotest.test_case "frr across failed link" `Quick
            test_frr_failed_link;
          Alcotest.test_case "frr across healed link" `Quick
            test_frr_healed_link_legal;
          Alcotest.test_case "real runs are violation-free" `Quick
            test_real_runs_hold_invariants;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "accepts perfect tables" `Quick
            test_oracle_accepts_perfect_tables;
          Alcotest.test_case "bounded metric" `Quick test_oracle_max_metric;
          Alcotest.test_case "rejects corrupted tables" `Quick test_oracle_teeth;
          Alcotest.test_case "frr differential vs frr module" `Quick
            test_oracle_frr_matches_frr_module;
          Alcotest.test_case "frr skipped without backups" `Quick
            test_oracle_frr_skipped_without_backups;
          Alcotest.test_case "frr rejects bad backups" `Quick
            test_oracle_frr_teeth;
          Alcotest.test_case "frr reduces no-route drops" `Quick
            test_frr_run_reduces_drops;
          Alcotest.test_case "frr runs are deterministic" `Quick
            test_frr_run_deterministic;
          Alcotest.test_case "matches all four converged protocols" `Quick
            test_oracle_on_converged_runs;
          Alcotest.test_case "catches RIP without failure detection" `Quick
            test_oracle_catches_blind_rip;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "generator is seed-deterministic" `Quick
            test_fuzz_deterministic;
          Alcotest.test_case "scenario topologies are connected" `Quick
            test_fuzz_failures_never_partition;
          Alcotest.test_case "smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "regression: BGP lossy heal (RTO divergence)"
            `Quick test_fuzz_regression_bgp_lossy_heal;
        ] );
    ]
