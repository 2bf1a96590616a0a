(* DBF behavior tests: everything RIP does, plus the per-neighbor vector
   cache and the resulting instant switch-over. *)

module H = Proto_harness.Make (Protocols.Dbf)

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

let test_cache_is_populated () =
  let net = converge (line 3) in
  (* Node 1 hears node 0's self route (metric 0) and node 2's (metric 0). *)
  Alcotest.(check (option int)) "cache 1<-0 about 0" (Some 0)
    (Protocols.Dbf.cached_metric (H.router net 1) ~neighbor:0 ~dst:0);
  Alcotest.(check (option int)) "cache 1<-2 about 2" (Some 0)
    (Protocols.Dbf.cached_metric (H.router net 1) ~neighbor:2 ~dst:2)

let test_poison_reverse_in_cache () =
  (* Line 0-1-2: node 0 routes to 2 via 1, so node 1 must hear POISON from 0
     about 2 (infinity -> cached_metric None). *)
  let net = converge (line 3) in
  Alcotest.(check (option int)) "poisoned" None
    (Protocols.Dbf.cached_metric (H.router net 1) ~neighbor:0 ~dst:2)

let test_instant_switchover () =
  (* Triangle 0-1-2: node 1 reaches 2 directly; node 0 also reaches 2
     directly, so node 0's advertisement to 1 about 2 (metric 1) is NOT
     poisoned. When (1,2) dies, node 1 must switch to the cached alternate
     via 0 instantly (zero-time switch-over), without waiting for a message. *)
  let topo = Netsim.Topology.create ~nodes:3 ~edges:[ (0, 1); (0, 2); (1, 2) ] in
  let net = converge topo in
  Alcotest.(check (option int)) "before: direct" (Some 2) (H.next_hop net 1 ~dst:2);
  H.fail_link net 1 2;
  (* No simulation time passes: the alternate must already be installed. *)
  Alcotest.(check (option int)) "after: via 0" (Some 0) (H.next_hop net 1 ~dst:2);
  Alcotest.(check (option int)) "metric 2" (Some 2) (H.metric net 1 ~dst:2)

let test_switchover_requires_valid_cache_entry () =
  (* Line: no alternate exists; the switch-over cannot invent one. *)
  let net = converge (line 3) in
  H.fail_link net 1 2;
  Alcotest.(check (option int)) "no alternate" None (H.next_hop net 1 ~dst:2)

let test_converges_to_next_best_not_infinity () =
  (* Ring of 5: after a failure the network must settle on the longer way
     around ("counting to the next-best path", paper Section 6). *)
  let net = converge (ring 5) in
  H.fail_link net 0 1;
  H.run net ~until:300.;
  let after = Netsim.Topology.remove_edge (ring 5) 0 1 in
  for dst = 0 to 4 do
    H.check_shortest_paths ~topo':after net ~dst
  done;
  Alcotest.(check (option int)) "0->1 the long way" (Some 4) (H.metric net 0 ~dst:1)

let test_unreachable_destination_forgotten () =
  let net = converge (ring 4) in
  H.fail_link net 2 3;
  H.fail_link net 3 0;
  H.run net ~until:500.;
  for src = 0 to 2 do
    Alcotest.(check (option int))
      (Printf.sprintf "%d -> 3 unreachable" src)
      None (H.next_hop net src ~dst:3)
  done

let test_link_up_restores () =
  let net = converge (ring 4) in
  H.fail_link net 0 1;
  H.run net ~until:250.;
  H.restore_link net 0 1;
  H.run net ~until:400.;
  for dst = 0 to 3 do
    H.check_shortest_paths net ~dst
  done

let test_tie_keeps_incumbent () =
  (* Square grid 3x3: center node 4 has equal-cost choices to corner 0 via 1
     or 3. Once converged, repeated periodic updates must not flip the choice
     (stability: ties prefer the incumbent). *)
  let topo = Netsim.Mesh.generate ~rows:3 ~cols:3 ~degree:4 in
  let net = converge topo in
  let first = H.next_hop net 4 ~dst:0 in
  H.run net ~until:400.;
  Alcotest.(check (option int)) "stable tie" first (H.next_hop net 4 ~dst:0)

let test_cache_survives_unrelated_failure () =
  (* Failing (0,1) must not disturb node 2's cache about node 3. *)
  let net = converge (ring 4) in
  let before = Protocols.Dbf.cached_metric (H.router net 2) ~neighbor:3 ~dst:3 in
  H.fail_link net 0 1;
  let after = Protocols.Dbf.cached_metric (H.router net 2) ~neighbor:3 ~dst:3 in
  Alcotest.(check (option int)) "cache untouched" before after

let test_cache_entry_timeout () =
  (* Line 0-1-2 with link 1-2 silenced at 120 s: neither end is told, so 1
     keeps 2's cached vector until its entry for 2 times out, exactly 180 s
     after the last update 1 heard from 2. With no alternate (0 poisons its
     route to 2 back to 1) the route goes at that instant, and it is the only
     route change at 1 after the silence. *)
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
  Alcotest.(check (option int)) "entry expired" None
    (Protocols.Dbf.cached_metric (H.router net 1) ~neighbor:2 ~dst:2);
  Alcotest.(check (option int)) "route gone" None (H.next_hop net 1 ~dst:2)

let prop_converges_on_random_connected_graphs =
  QCheck.Test.make ~name:"DBF converges to shortest paths on random graphs"
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
    ~name:"DBF reconverges to shortest paths after a random failure" ~count:15
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
        H.run net ~until:400.;
        try
          for dst = 0 to nodes - 1 do
            H.check_shortest_paths ~topo':after net ~dst
          done;
          true
        with _ -> false
      end
      else true)

(* ---------- The fixed point of the heard vectors ---------- *)

(* [on_message] recomputes only destinations whose heard metric moved. That
   is exact because after every handler each route is already the best one
   the heard vectors offer over the up neighbors. This property checks that
   fixed point after every step of a random run. *)

type step = Fail of int | Restore of int | Silence of int | Run of int

let pp_step ppf = function
  | Fail e -> Fmt.pf ppf "fail edge %d" e
  | Restore e -> Fmt.pf ppf "restore edge %d" e
  | Silence e -> Fmt.pf ppf "silence edge %d" e
  | Run s -> Fmt.pf ppf "run %d s" s

type graph = Mesh of int * int * int | Er of int * int

let pp_graph ppf = function
  | Mesh (rows, cols, degree) -> Fmt.pf ppf "mesh %dx%d degree %d" rows cols degree
  | Er (nodes, seed) -> Fmt.pf ppf "ER %d nodes seed %d" nodes seed

let topology = function
  | Mesh (rows, cols, degree) -> Netsim.Mesh.generate ~rows ~cols ~degree
  | Er (nodes, seed) ->
    Netsim.Random_topo.erdos_renyi (Dessim.Rng.create seed) ~nodes ~p:0.4

let arb_run =
  let open QCheck.Gen in
  let graph =
    oneof
      [
        map3
          (fun rows cols degree -> Mesh (rows, cols, degree))
          (3 -- 4) (3 -- 4) (3 -- 6);
        map2 (fun nodes seed -> Er (nodes, seed)) (4 -- 10) (1 -- 1000);
      ]
  in
  (* An edge is an index into the topology's edge list, taken modulo its
     length. A restore may name a link that never failed: a no-op. *)
  let step =
    frequency
      [
        (3, map (fun e -> Fail e) (0 -- 100));
        (2, map (fun e -> Restore e) (0 -- 100));
        (1, map (fun e -> Silence e) (0 -- 100));
        (4, map (fun s -> Run s) (1 -- 250));
      ]
  in
  QCheck.make
    ~print:(fun (g, seed, steps) ->
      Fmt.str "%a, seed %d: %a" pp_graph g seed Fmt.(list ~sep:comma pp_step) steps)
    (triple graph (1 -- 1000) (list_size (1 -- 12) step))

let infinity_metric = Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric

(* Every router's metric to every other node is the least cached metric + 1
   over its up neighbors, capped at infinity, and its next hop attains it. *)
let check_fixed_point net ~nodes ~after =
  let fail id dst fmt =
    Fmt.kstr
      (fun m -> QCheck.Test.fail_reportf "after %s: router %d, dst %d: %s" after id dst m)
      fmt
  in
  for id = 0 to nodes - 1 do
    let up = H.up_neighbors net id in
    for dst = 0 to nodes - 1 do
      if dst <> id then begin
        let via n =
          match Protocols.Dbf.cached_metric (H.router net id) ~neighbor:n ~dst with
          | Some c -> min (c + 1) infinity_metric
          | None -> infinity_metric
        in
        let best = List.fold_left (fun acc n -> min acc (via n)) infinity_metric up in
        let metric = Option.value (H.metric net id ~dst) ~default:infinity_metric in
        if metric <> best then fail id dst "metric %d, best heard %d" metric best;
        match H.next_hop net id ~dst with
        | None ->
          if best < infinity_metric then fail id dst "no next hop, best heard %d" best
        | Some nh ->
          if not (List.mem nh up) then fail id dst "next hop %d is not up" nh
          else if via nh <> best then
            fail id dst "next hop %d offers %d, best %d" nh (via nh) best
      end
    done
  done

let prop_routes_are_fixed_point =
  QCheck.Test.make ~name:"DBF routes stay the best heard" ~count:60 arb_run
    (fun (graph, seed, steps) ->
      let topo = topology graph in
      let nodes = Netsim.Topology.node_count topo in
      let edges = Array.of_list (Netsim.Topology.edges topo) in
      let net = H.make ~seed topo in
      let on_edge e act =
        let u, v = edges.(e mod Array.length edges) in
        act net u v
      in
      H.start net;
      check_fixed_point net ~nodes ~after:"start";
      List.iter
        (fun step ->
          (match step with
          | Fail e -> on_edge e H.fail_link
          | Restore e -> on_edge e H.restore_link
          | Silence e -> on_edge e H.silence_link
          | Run s ->
            H.run net ~until:(Dessim.Scheduler.now (H.sched net) +. float_of_int s));
          check_fixed_point net ~nodes ~after:(Fmt.str "%a" pp_step step))
        steps;
      true)

let () =
  Alcotest.run "dbf"
    [
      ( "convergence",
        [
          Alcotest.test_case "line" `Quick test_line_converges;
          Alcotest.test_case "grid" `Quick test_grid_converges;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_converges_on_random_connected_graphs; prop_failure_then_reconverge ]
      );
      ( "cache",
        [
          Alcotest.test_case "populated" `Quick test_cache_is_populated;
          Alcotest.test_case "poison reverse" `Quick test_poison_reverse_in_cache;
          Alcotest.test_case "survives unrelated failure" `Quick
            test_cache_survives_unrelated_failure;
          Alcotest.test_case "entry timeout" `Quick test_cache_entry_timeout;
        ] );
      ( "switch-over",
        [
          Alcotest.test_case "instant" `Quick test_instant_switchover;
          Alcotest.test_case "needs valid entry" `Quick
            test_switchover_requires_valid_cache_entry;
          Alcotest.test_case "next-best not infinity" `Quick
            test_converges_to_next_best_not_infinity;
          Alcotest.test_case "unreachable forgotten" `Quick
            test_unreachable_destination_forgotten;
          Alcotest.test_case "link up" `Quick test_link_up_restores;
          Alcotest.test_case "ties stable" `Quick test_tie_keeps_incumbent;
        ] );
      ("fixed point", [ QCheck_alcotest.to_alcotest prop_routes_are_fixed_point ]);
    ]
