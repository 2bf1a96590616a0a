(* BGP behavior tests: path-vector selection, Adj-RIB-in caching, loop
   detection, withdrawals, and MRAI batching at both granularities. *)

module H = Proto_harness.Make (Protocols.Bgp)

let line n =
  Netsim.Topology.create ~nodes:n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))

let ring n =
  Netsim.Topology.create ~nodes:n
    ~edges:((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let fast = Protocols.Bgp.fast_config

let converge ?(config = fast) ?(seed = 1) ?(until = 60.) topo =
  let net = H.make ~config ~seed topo in
  H.start net;
  H.run net ~until;
  net

let test_line_converges () =
  let net = converge (line 5) in
  for dst = 0 to 4 do
    H.check_shortest_paths net ~dst
  done

let test_grid_converges () =
  let topo = Netsim.Mesh.generate ~rows:4 ~cols:4 ~degree:4 in
  let net = converge topo in
  for dst = 0 to 15 do
    H.check_shortest_paths net ~dst
  done

let test_paths_are_recorded () =
  let net = converge (line 4) in
  (match Protocols.Bgp.best_path (H.router net 0) ~dst:3 with
  | Some p -> Alcotest.(check (list int)) "full path" [ 0; 1; 2; 3 ] p
  | None -> Alcotest.fail "no path");
  Alcotest.(check (option (list int))) "self path" (Some [ 2 ])
    (Protocols.Bgp.best_path (H.router net 2) ~dst:2)

let test_metric_is_path_length () =
  let net = converge (line 4) in
  Alcotest.(check (option int)) "0->3" (Some 3) (H.metric net 0 ~dst:3);
  Alcotest.(check (option int)) "self" (Some 0) (H.metric net 1 ~dst:1)

let test_rib_in_caches_alternates () =
  (* Ring of 4: node 0 hears about node 2 from both 1 and 3. *)
  let net = converge (ring 4) in
  let r0 = H.router net 0 in
  Alcotest.(check bool) "via 1 cached" true
    (Protocols.Bgp.rib_in_path r0 ~neighbor:1 ~dst:2 <> None);
  Alcotest.(check bool) "via 3 cached" true
    (Protocols.Bgp.rib_in_path r0 ~neighbor:3 ~dst:2 <> None)

let test_instant_switchover_via_rib () =
  (* Triangle: node 2's path to 1 is direct, so its advertisement to 0 about
     1 is usable (does not pass through 0). When (0,1) dies, 0 switches to
     the cached alternate via 2 with no message exchange. (A ring would NOT
     work here: in a ring, 0's other neighbor routes to 1 through 0 itself,
     and the path-through-self rule already purged that entry — the implicit
     poison reverse.) *)
  let topo = Netsim.Topology.create ~nodes:3 ~edges:[ (0, 1); (0, 2); (1, 2) ] in
  let net = converge topo in
  Alcotest.(check (option int)) "before: direct" (Some 1) (H.next_hop net 0 ~dst:1);
  H.fail_link net 0 1;
  Alcotest.(check (option int)) "instant alternate" (Some 2) (H.next_hop net 0 ~dst:1);
  Alcotest.(check (option int)) "path length 2" (Some 2) (H.metric net 0 ~dst:1)

let test_loop_detection_rejects_own_path () =
  (* Receiving a path containing yourself must act as a withdrawal. *)
  let net = converge (line 3) in
  let r1 = H.router net 1 in
  Alcotest.(check bool) "has rib entry" true
    (Protocols.Bgp.rib_in_path r1 ~neighbor:0 ~dst:0 <> None);
  (* Forge an update from 0 whose path passes through 1. *)
  Protocols.Bgp.on_message r1 ~from:0
    (Protocols.Bgp.Update { dst = 0; path = [ 0; 1; 0 ] });
  Alcotest.(check (option (list int))) "entry withdrawn" None
    (Protocols.Bgp.rib_in_path r1 ~neighbor:0 ~dst:0)

let test_withdrawal_removes_route () =
  let net = converge (line 3) in
  let r1 = H.router net 1 in
  Protocols.Bgp.on_message r1 ~from:2 (Protocols.Bgp.Withdraw { dsts = [ 2 ] });
  Alcotest.(check (option int)) "route gone" None (H.next_hop net 1 ~dst:2)

let test_partition_withdraws_everywhere () =
  let net = converge (line 4) in
  H.fail_link net 1 2;
  H.run net ~until:120.;
  Alcotest.(check (option int)) "0 lost 3" None (H.next_hop net 0 ~dst:3);
  Alcotest.(check (option int)) "3 lost 0" None (H.next_hop net 3 ~dst:0);
  Alcotest.(check (option int)) "0 keeps 1" (Some 1) (H.next_hop net 0 ~dst:1)

let test_reconverges_after_failure () =
  let net = converge (ring 6) in
  H.fail_link net 0 1;
  H.run net ~until:200.;
  let after = Netsim.Topology.remove_edge (ring 6) 0 1 in
  for dst = 0 to 5 do
    H.check_shortest_paths ~topo':after net ~dst
  done

let test_link_up_session_reestablish () =
  let net = converge (ring 4) in
  H.fail_link net 0 1;
  H.run net ~until:100.;
  H.restore_link net 0 1;
  H.run net ~until:200.;
  for dst = 0 to 3 do
    H.check_shortest_paths net ~dst
  done;
  Alcotest.(check (option int)) "direct again" (Some 1) (H.next_hop net 0 ~dst:1)

let test_mrai_delays_second_wave () =
  (* With a long MRAI, a second route change shortly after a first one must
     not be advertised until the timer expires. Line 0-1-2-3; watch node 1's
     knowledge of dst 3 change as node 2 re-advertises. *)
  let config = { Protocols.Bgp.default_config with mrai_mean = 10.; mrai_jitter = 0. } in
  let net = converge ~config ~until:60. (line 4) in
  (* All gates are closed or open depending on history; wait for quiet. *)
  H.run net ~until:100.;
  let r2 = H.router net 2 in
  (* First change: node 2 learns a new (forged) better path to 3? Instead
     drive two successive changes at node 2 via forged updates from 3 and
     check node 1 sees the first quickly and the second only after ~10 s. *)
  let t0 = Dessim.Scheduler.now (H.sched net) in
  Protocols.Bgp.on_message r2 ~from:3
    (Protocols.Bgp.Update { dst = 30; path = [ 3; 30 ] });
  ignore
    (Dessim.Scheduler.after (H.sched net) ~delay:0.5 (fun () ->
         Protocols.Bgp.on_message r2 ~from:3
           (Protocols.Bgp.Update { dst = 31; path = [ 3; 31 ] })));
  (* Run just past the first delivery. *)
  H.run net ~until:(t0 +. 2.);
  let r1 = H.router net 1 in
  Alcotest.(check bool) "first propagated fast" true (H.metric net 1 ~dst:30 <> None);
  Alcotest.(check (option int)) "second still gated" None
    (Protocols.Bgp.metric r1 ~dst:31);
  H.run net ~until:(t0 +. 15.);
  Alcotest.(check bool) "second arrives after MRAI" true
    (Protocols.Bgp.metric r1 ~dst:31 <> None)

let test_mrai_per_destination_scope () =
  (* Same scenario, but with per-(neighbor, destination) MRAI the second
     destination has its own fresh timer and is NOT delayed. *)
  let config =
    {
      Protocols.Bgp.default_config with
      mrai_mean = 10.;
      mrai_jitter = 0.;
      mrai_scope = Protocols.Bgp.Per_destination;
    }
  in
  let net = converge ~config ~until:100. (line 4) in
  let r2 = H.router net 2 in
  let t0 = Dessim.Scheduler.now (H.sched net) in
  Protocols.Bgp.on_message r2 ~from:3
    (Protocols.Bgp.Update { dst = 30; path = [ 3; 30 ] });
  ignore
    (Dessim.Scheduler.after (H.sched net) ~delay:0.5 (fun () ->
         Protocols.Bgp.on_message r2 ~from:3
           (Protocols.Bgp.Update { dst = 31; path = [ 3; 31 ] })));
  H.run net ~until:(t0 +. 2.);
  Alcotest.(check bool) "both propagate fast" true
    (H.metric net 1 ~dst:30 <> None && H.metric net 1 ~dst:31 <> None)

let test_withdrawals_bypass_mrai () =
  let config = { Protocols.Bgp.default_config with mrai_mean = 20.; mrai_jitter = 0. } in
  let net = converge ~config ~until:100. (line 4) in
  (* Cause churn at node 2 so its gate toward 1 is closed, then a failure:
     the withdrawal must still reach node 1 quickly. *)
  let r2 = H.router net 2 in
  Protocols.Bgp.on_message r2 ~from:3
    (Protocols.Bgp.Update { dst = 30; path = [ 3; 30 ] });
  let t0 = Dessim.Scheduler.now (H.sched net) in
  H.fail_link net 2 3;
  H.run net ~until:(t0 +. 2.);
  Alcotest.(check (option int)) "1 heard the withdrawal fast" None
    (H.next_hop net 1 ~dst:3)

let test_batch_flush_on_event () =
  (* An event changing many destinations at once must advertise all of them
     before the gate closes (paper Section 4.3), not just the first. *)
  let config = { Protocols.Bgp.default_config with mrai_mean = 20.; mrai_jitter = 0. } in
  let net = converge ~config ~until:100. (ring 5) in
  let t0 = Dessim.Scheduler.now (H.sched net) in
  (* Failure of (0,1) changes node 0's paths to 1 AND 2 (both went via 1). *)
  H.fail_link net 0 1;
  H.run net ~until:(t0 +. 2.);
  (* Node 4 must have heard node 0's new (reversed) paths for both quickly. *)
  let r4 = H.router net 4 in
  let p1 = Protocols.Bgp.rib_in_path r4 ~neighbor:0 ~dst:1 in
  let p2 = Protocols.Bgp.rib_in_path r4 ~neighbor:0 ~dst:2 in
  (* 0's new paths to 1/2 run through 4 itself, so they arrive as implicit
     withdrawals; "heard" means the stale entries are gone. *)
  Alcotest.(check (option (list int))) "stale 1 purged" None p1;
  Alcotest.(check (option (list int))) "stale 2 purged" None p2

(* One router driven by hand: its sends are recorded rather than
   delivered, and its MRAI timers run on a private scheduler. *)
let lone_router ~config ~id ~neighbors =
  let sched = Dessim.Scheduler.create () in
  let sent = ref [] in
  let actions =
    {
      Protocols.Proto_intf.now = (fun () -> Dessim.Scheduler.now sched);
      send =
        (fun neighbor msg ->
          sent := (Dessim.Scheduler.now sched, neighbor, msg) :: !sent);
      after = (fun delay fn -> Dessim.Scheduler.after sched ~delay fn);
      route_changed = (fun _ -> ());
      note = (fun _ -> ());
    }
  in
  let r =
    Protocols.Bgp.create config ~rng:(Dessim.Rng.create 1) ~id ~neighbors ~actions
  in
  (r, sched, sent)

let test_withdrawn_then_readvertised_while_gated () =
  (* Router 1's gates close at start. Destination 30 queues behind the
     closed gate to 0, is withdrawn (dropping it from the pending set) and
     is re-advertised before the timer expires: the flush sends it once. *)
  let config = { Protocols.Bgp.default_config with mrai_mean = 10.; mrai_jitter = 0. } in
  let r, sched, sent = lone_router ~config ~id:1 ~neighbors:[ 0; 2 ] in
  Protocols.Bgp.start r;
  let update () =
    Protocols.Bgp.on_message r ~from:2 (Protocols.Bgp.Update { dst = 30; path = [ 2; 30 ] })
  in
  update ();
  ignore
    (Dessim.Scheduler.after sched ~delay:1. (fun () ->
         Protocols.Bgp.on_message r ~from:2 (Protocols.Bgp.Withdraw { dsts = [ 30 ] })));
  ignore (Dessim.Scheduler.after sched ~delay:2. update);
  Dessim.Scheduler.run ~until:30. sched;
  let to_0 =
    List.filter_map
      (fun (at, n, msg) ->
        match msg with
        | Protocols.Bgp.Update { dst = 30; path } when n = 0 -> Some (at, path)
        | Protocols.Bgp.Update _ | Protocols.Bgp.Withdraw _ -> None)
      (List.rev !sent)
  in
  Alcotest.(check (list (pair (float 1e-9) (list int))))
    "one update, at the flush" [ (10., [ 1; 2; 30 ]) ] to_0;
  Alcotest.(check bool) "withdrawal went out at once" true
    (List.exists
       (fun (at, n, msg) ->
         n = 0 && at = 1.
         && match msg with
            | Protocols.Bgp.Withdraw { dsts } -> dsts = [ 30 ]
            | Protocols.Bgp.Update _ -> false)
       !sent)

let test_non_neighbor_messages_ignored () =
  (* Router 1 peers with 0 and 4. Messages claiming to come from 2 (an id
     between the neighbors) or 99 (above every neighbor) touch nothing. *)
  let r, sched, sent = lone_router ~config:fast ~id:1 ~neighbors:[ 0; 4 ] in
  Protocols.Bgp.start r;
  Protocols.Bgp.on_message r ~from:0 (Protocols.Bgp.Update { dst = 0; path = [ 0 ] });
  Protocols.Bgp.on_message r ~from:4 (Protocols.Bgp.Update { dst = 7; path = [ 4; 7 ] });
  Dessim.Scheduler.run ~until:20. sched;
  let snapshot () =
    ( Protocols.Bgp.known_destinations r,
      List.map
        (fun dst ->
          ( Protocols.Bgp.best_path r ~dst,
            Protocols.Bgp.metric r ~dst,
            Protocols.Bgp.next_hop r ~dst,
            List.map
              (fun neighbor -> Protocols.Bgp.rib_in_path r ~neighbor ~dst)
              [ 0; 2; 4; 99 ] ))
        [ 0; 1; 5; 7; 99 ] )
  in
  let before = snapshot () in
  let sends = List.length !sent in
  List.iter
    (fun from ->
      Protocols.Bgp.on_message r ~from (Protocols.Bgp.Update { dst = 5; path = [ from; 5 ] });
      Protocols.Bgp.on_message r ~from (Protocols.Bgp.Withdraw { dsts = [ 0; 7 ] }))
    [ 2; 99 ];
  Dessim.Scheduler.run ~until:40. sched;
  Alcotest.(check bool) "tables unchanged" true (before = snapshot ());
  Alcotest.(check int) "nothing sent" sends (List.length !sent);
  Alcotest.(check (option int)) "route via 4 kept" (Some 4)
    (Protocols.Bgp.next_hop r ~dst:7)

let test_message_sizes () =
  let u = Protocols.Bgp.Update { dst = 5; path = [ 1; 2; 5 ] } in
  let w = Protocols.Bgp.Withdraw { dsts = [ 1; 2; 3 ] } in
  Alcotest.(check int) "update" (8 * (19 + 4 + 6)) (Protocols.Bgp.message_size_bits u);
  Alcotest.(check int) "withdraw" (8 * (19 + 12)) (Protocols.Bgp.message_size_bits w)

(* ---------- route flap damping ---------- *)

let rfd_config =
  {
    fast with
    Protocols.Bgp.rfd =
      Some { Protocols.Bgp.default_rfd with half_life = 5.; max_suppress = 60. };
  }

let flap net ~router ~from ~dst ~path times =
  let r = H.router net router in
  for _ = 1 to times do
    Protocols.Bgp.on_message r ~from (Protocols.Bgp.Update { dst; path });
    Protocols.Bgp.on_message r ~from (Protocols.Bgp.Withdraw { dsts = [ dst ] })
  done

let test_rfd_suppresses_flapping_route () =
  let net = converge ~config:rfd_config (line 3) in
  (* Destination 30 flaps three times as seen by router 1 from neighbor 2:
     three withdrawal penalties cross the cutoff of 2.0. *)
  flap net ~router:1 ~from:2 ~dst:30 ~path:[ 2; 30 ] 3;
  Alcotest.(check bool) "suppressed" true
    (Protocols.Bgp.rfd_suppressed (H.router net 1) ~neighbor:2 ~dst:30);
  (* Even a fresh valid advertisement is not selected while suppressed. *)
  Protocols.Bgp.on_message (H.router net 1) ~from:2
    (Protocols.Bgp.Update { dst = 30; path = [ 2; 30 ] });
  Alcotest.(check (option int)) "not selected" None (H.next_hop net 1 ~dst:30)

let test_rfd_releases_after_decay () =
  let net = converge ~config:rfd_config (line 3) in
  flap net ~router:1 ~from:2 ~dst:30 ~path:[ 2; 30 ] 3;
  Protocols.Bgp.on_message (H.router net 1) ~from:2
    (Protocols.Bgp.Update { dst = 30; path = [ 2; 30 ] });
  (* half-life 5 s: penalty ~3 decays below reuse 0.75 within ~15 s. *)
  let t0 = Dessim.Scheduler.now (H.sched net) in
  H.run net ~until:(t0 +. 40.);
  Alcotest.(check bool) "released" false
    (Protocols.Bgp.rfd_suppressed (H.router net 1) ~neighbor:2 ~dst:30);
  Alcotest.(check (option int)) "selected again" (Some 2) (H.next_hop net 1 ~dst:30)

let test_rfd_single_event_not_suppressed () =
  let net = converge ~config:rfd_config (line 3) in
  flap net ~router:1 ~from:2 ~dst:30 ~path:[ 2; 30 ] 1;
  Alcotest.(check bool) "one flap tolerated" false
    (Protocols.Bgp.rfd_suppressed (H.router net 1) ~neighbor:2 ~dst:30)

let test_no_rfd_never_suppresses () =
  let net = converge (line 3) in
  flap net ~router:1 ~from:2 ~dst:30 ~path:[ 2; 30 ] 10;
  Alcotest.(check bool) "no damping configured" false
    (Protocols.Bgp.rfd_suppressed (H.router net 1) ~neighbor:2 ~dst:30);
  Protocols.Bgp.on_message (H.router net 1) ~from:2
    (Protocols.Bgp.Update { dst = 30; path = [ 2; 30 ] });
  Alcotest.(check (option int)) "immediately usable" (Some 2)
    (H.next_hop net 1 ~dst:30)

let test_rfd_is_per_destination () =
  let net = converge ~config:rfd_config (line 3) in
  flap net ~router:1 ~from:2 ~dst:30 ~path:[ 2; 30 ] 3;
  (* A different, stable destination from the same neighbor is untouched. *)
  Alcotest.(check (option int)) "other routes fine" (Some 2) (H.next_hop net 1 ~dst:2)

let prop_converges_on_random_connected_graphs =
  QCheck.Test.make ~name:"BGP converges to shortest paths on random graphs"
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
    ~name:"BGP reconverges to shortest paths after a random failure" ~count:10
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
        (* Several MRAI rounds at the fast (3 s) setting. *)
        H.run net ~until:200.;
        try
          for dst = 0 to nodes - 1 do
            H.check_shortest_paths ~topo':after net ~dst
          done;
          true
        with _ -> false
      end
      else true)

let prop_no_selected_path_contains_self =
  QCheck.Test.make ~name:"no selected path ever contains the selector" ~count:20
    QCheck.(pair (1 -- 1000) (6 -- 10))
    (fun (seed, nodes) ->
      let rng = Dessim.Rng.create seed in
      let topo = Netsim.Random_topo.erdos_renyi rng ~nodes ~p:0.3 in
      let net = converge ~seed topo in
      let ok = ref true in
      for id = 0 to nodes - 1 do
        for dst = 0 to nodes - 1 do
          if id <> dst then
            match Protocols.Bgp.best_path (H.router net id) ~dst with
            | Some (_ :: rest) -> if List.mem id rest then ok := false
            | Some [] | None -> ()
        done
      done;
      !ok)

let () =
  Alcotest.run "bgp"
    [
      ( "convergence",
        [
          Alcotest.test_case "line" `Quick test_line_converges;
          Alcotest.test_case "grid" `Quick test_grid_converges;
          Alcotest.test_case "paths recorded" `Quick test_paths_are_recorded;
          Alcotest.test_case "metric = path length" `Quick test_metric_is_path_length;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_converges_on_random_connected_graphs;
              prop_no_selected_path_contains_self;
              prop_failure_then_reconverge;
            ] );
      ( "rib and selection",
        [
          Alcotest.test_case "rib caches alternates" `Quick test_rib_in_caches_alternates;
          Alcotest.test_case "instant switch-over" `Quick test_instant_switchover_via_rib;
          Alcotest.test_case "loop detection" `Quick test_loop_detection_rejects_own_path;
          Alcotest.test_case "withdrawal" `Quick test_withdrawal_removes_route;
          Alcotest.test_case "partition" `Quick test_partition_withdraws_everywhere;
          Alcotest.test_case "reconvergence" `Quick test_reconverges_after_failure;
          Alcotest.test_case "session re-establish" `Quick test_link_up_session_reestablish;
          Alcotest.test_case "non-neighbor messages ignored" `Quick
            test_non_neighbor_messages_ignored;
        ] );
      ( "mrai",
        [
          Alcotest.test_case "second wave delayed" `Quick test_mrai_delays_second_wave;
          Alcotest.test_case "per-destination scope" `Quick test_mrai_per_destination_scope;
          Alcotest.test_case "withdrawals bypass" `Quick test_withdrawals_bypass_mrai;
          Alcotest.test_case "batch flush" `Quick test_batch_flush_on_event;
          Alcotest.test_case "withdrawn then re-advertised while gated" `Quick
            test_withdrawn_then_readvertised_while_gated;
          Alcotest.test_case "message sizes" `Quick test_message_sizes;
        ] );
      ( "route flap damping",
        [
          Alcotest.test_case "suppresses flapping" `Quick test_rfd_suppresses_flapping_route;
          Alcotest.test_case "releases after decay" `Quick test_rfd_releases_after_decay;
          Alcotest.test_case "single event ok" `Quick test_rfd_single_event_not_suppressed;
          Alcotest.test_case "off by default" `Quick test_no_rfd_never_suppresses;
          Alcotest.test_case "per destination" `Quick test_rfd_is_per_destination;
        ] );
    ]
