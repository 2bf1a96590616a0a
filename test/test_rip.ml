(* RIP behavior tests on small topologies, via the message-level harness. *)

module H = Proto_harness.Make (Protocols.Rip)

let line n =
  Netsim.Topology.create ~nodes:n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))

let ring n =
  Netsim.Topology.create ~nodes:n
    ~edges:((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let converge ?(seed = 1) ?(until = 120.) topo =
  let net = H.make ~seed topo in
  H.start net;
  H.run net ~until;
  net

let test_line_converges () =
  let topo = line 4 in
  let net = converge topo in
  for dst = 0 to 3 do
    H.check_shortest_paths net ~dst
  done

let test_line_metrics () =
  let net = converge (line 4) in
  Alcotest.(check (option int)) "0->3" (Some 3) (H.metric net 0 ~dst:3);
  Alcotest.(check (option int)) "1->3" (Some 2) (H.metric net 1 ~dst:3);
  Alcotest.(check (option int)) "self metric" (Some 0) (H.metric net 2 ~dst:2)

let test_ring_converges_both_ways () =
  let net = converge (ring 6) in
  (* In a 6-ring, node 0's route to 3 is 3 hops either way; to 2 it must go
     clockwise via 1. *)
  Alcotest.(check (option int)) "0->2 metric" (Some 2) (H.metric net 0 ~dst:2);
  Alcotest.(check (option int)) "0->2 hop" (Some 1) (H.next_hop net 0 ~dst:2);
  Alcotest.(check (option int)) "0->5 hop" (Some 5) (H.next_hop net 0 ~dst:5)

let test_grid_converges () =
  let topo = Netsim.Mesh.generate ~rows:4 ~cols:4 ~degree:4 in
  let net = converge topo in
  for dst = 0 to 15 do
    H.check_shortest_paths net ~dst
  done

let test_failure_triggers_loss_then_periodic_recovery () =
  (* Line 0-1-2-3: when link (1,2) dies, 0 and 1 lose 2 and 3 entirely (no
     alternate path exists). *)
  let topo = line 4 in
  let net = converge topo in
  H.fail_link net 1 2;
  H.run net ~until:130.;
  Alcotest.(check (option int)) "1 lost 2" None (H.next_hop net 1 ~dst:2);
  Alcotest.(check (option int)) "1 lost 3" None (H.next_hop net 1 ~dst:3);
  H.run net ~until:300.;
  Alcotest.(check (option int)) "still lost" None (H.next_hop net 0 ~dst:3)

let converge_horizon = 200.

let test_failure_recovery_via_alternate () =
  (* Ring: 0-1-2-3-0. Kill (0,1): 0 reaches 1 the long way. RIP keeps no
     alternate so recovery takes up to a periodic cycle, but must happen. *)
  let net = converge (ring 4) in
  H.fail_link net 0 1;
  H.run net ~until:converge_horizon;
  Alcotest.(check (option int)) "0->1 via 3" (Some 3) (H.next_hop net 0 ~dst:1);
  Alcotest.(check (option int)) "metric 3" (Some 3) (H.metric net 0 ~dst:1);
  let after = Netsim.Topology.remove_edge (ring 4) 0 1 in
  for dst = 0 to 3 do
    H.check_shortest_paths ~topo':after net ~dst
  done

let test_no_route_during_switchover () =
  (* Immediately after the failure (before any update arrives), a RIP router
     that lost its next hop has no route at all: the switch-over period. *)
  let net = converge (ring 4) in
  H.fail_link net 0 1;
  (* No time has passed: the route must already be gone. *)
  Alcotest.(check (option int)) "gone instantly" None (H.next_hop net 0 ~dst:1)

let test_split_horizon_prevents_two_hop_loop () =
  (* Line 0-1-2: after (1,2) fails, node 0 must never offer node 1 a route
     back to 2 (poison reverse sends infinity), so 1 never points at 0. *)
  let net = converge (line 3) in
  H.fail_link net 1 2;
  H.run net ~until:400.;
  Alcotest.(check (option int)) "no bounce-back at 1" None (H.next_hop net 1 ~dst:2);
  Alcotest.(check (option int)) "0 lost too" None (H.next_hop net 0 ~dst:2)

let test_count_to_infinity_is_bounded () =
  (* Ring of 4 with one extra stub: kill both of node 3's links so it is
     unreachable; metrics must stop at infinity (16), i.e. routes disappear
     rather than counting forever. *)
  let net = converge (ring 4) in
  H.fail_link net 2 3;
  H.fail_link net 3 0;
  H.run net ~until:500.;
  for src = 0 to 2 do
    Alcotest.(check (option int))
      (Printf.sprintf "%d has no route to 3" src)
      None (H.next_hop net src ~dst:3)
  done

let test_link_up_reannounces () =
  let net = converge (ring 4) in
  H.fail_link net 0 1;
  H.run net ~until:250.;
  H.restore_link net 0 1;
  H.run net ~until:400.;
  Alcotest.(check (option int)) "direct route back" (Some 1) (H.next_hop net 0 ~dst:1);
  for dst = 0 to 3 do
    H.check_shortest_paths net ~dst
  done

let test_route_timeout_expires_stale_routes () =
  (* Line 0-1-2 with link 1-2 silenced at 120 s: messages stop but neither
     end is told, so only the 180 s route timeout can remove 1's route to 2.
     It must fire exactly one timeout after the last update 1 heard from 2,
     and be the only route change at 1 after the silence. *)
  let net = converge (line 3) in
  H.silence_link net 1 2;
  let heard =
    match H.last_heard net 1 ~from:2 with
    | Some t -> t
    | None -> Alcotest.fail "1 never heard from 2"
  in
  H.run net ~until:400.;
  let at_1 = List.filter (fun (t, r, _) -> r = 1 && t > 120.) (H.route_changes net) in
  (match at_1 with
  | [ (t, _, dst) ] ->
    Alcotest.(check int) "changed destination" 2 dst;
    Alcotest.(check (float 0.)) "expiry instant" (heard +. 180.) t
  | l -> Alcotest.failf "expected one route change at 1, got %d" (List.length l));
  Alcotest.(check (option int)) "route gone" None (H.next_hop net 1 ~dst:2)

let test_messages_are_flowing () =
  let net = converge (line 3) ~until:65. in
  (* Two periodic cycles for 3 nodes with 2-4 link-endpoints each: there must
     be a healthy number of update messages. *)
  Alcotest.(check bool) "messages sent" true (H.messages net > 10)

let test_route_changes_reported () =
  let net = converge (ring 4) in
  let before = List.length (H.route_changes net) in
  H.fail_link net 0 1;
  H.run net ~until:300.;
  let after = List.length (H.route_changes net) in
  Alcotest.(check bool) "changes observed" true (after > before)

let test_start_twice_rejected () =
  let net = H.make ~seed:1 (line 3) in
  H.start net;
  Alcotest.check_raises "double start" (Invalid_argument "Rip.start: already started")
    (fun () -> Protocols.Rip.start (H.router net 0))

let prop_converges_on_random_connected_graphs =
  QCheck.Test.make ~name:"RIP converges to shortest paths on random graphs"
    ~count:20
    QCheck.(pair (1 -- 1000) (6 -- 12))
    (fun (seed, nodes) ->
      let rng = Dessim.Rng.create seed in
      let topo = Netsim.Random_topo.erdos_renyi rng ~nodes ~p:0.3 in
      let net = converge ~seed topo in
      try
        for dst = 0 to nodes - 1 do
          H.check_shortest_paths net ~dst
        done;
        true
      with _ -> false)

let prop_failure_then_reconverge =
  QCheck.Test.make
    ~name:"RIP reconverges to shortest paths after a random failure" ~count:10
    QCheck.(pair (1 -- 1000) (6 -- 10))
    (fun (seed, nodes) ->
      let rng = Dessim.Rng.create seed in
      let topo = Netsim.Random_topo.erdos_renyi rng ~nodes ~p:0.35 in
      let net = converge ~seed topo in
      let edges = Netsim.Topology.edges topo in
      let u, v = List.nth edges (Dessim.Rng.int rng (List.length edges)) in
      let after = Netsim.Topology.remove_edge topo u v in
      if Netsim.Topology.is_connected after then begin
        H.fail_link net u v;
        (* Two periodic cycles: RIP recovery can need a full 30 s round. *)
        H.run net ~until:400.;
        try
          for dst = 0 to nodes - 1 do
            H.check_shortest_paths ~topo':after net ~dst
          done;
          true
        with _ -> false
      end
      else true)

let () =
  Alcotest.run "rip"
    [
      ( "convergence",
        [
          Alcotest.test_case "line" `Quick test_line_converges;
          Alcotest.test_case "line metrics" `Quick test_line_metrics;
          Alcotest.test_case "ring" `Quick test_ring_converges_both_ways;
          Alcotest.test_case "grid" `Quick test_grid_converges;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_converges_on_random_connected_graphs; prop_failure_then_reconverge ] );
      ( "failure handling",
        [
          Alcotest.test_case "partition = loss" `Quick
            test_failure_triggers_loss_then_periodic_recovery;
          Alcotest.test_case "alternate recovery" `Quick
            test_failure_recovery_via_alternate;
          Alcotest.test_case "switch-over has no route" `Quick
            test_no_route_during_switchover;
          Alcotest.test_case "split horizon" `Quick
            test_split_horizon_prevents_two_hop_loop;
          Alcotest.test_case "count-to-infinity bounded" `Quick
            test_count_to_infinity_is_bounded;
          Alcotest.test_case "link up" `Quick test_link_up_reannounces;
          Alcotest.test_case "timeout sanity" `Quick
            test_route_timeout_expires_stale_routes;
        ] );
      ( "protocol mechanics",
        [
          Alcotest.test_case "messages flow" `Quick test_messages_are_flowing;
          Alcotest.test_case "route changes reported" `Quick test_route_changes_reported;
          Alcotest.test_case "double start" `Quick test_start_twice_rejected;
        ] );
    ]
