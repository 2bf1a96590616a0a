(* Tests for the network substrate: packets, the link model, topologies, the
   regular-mesh family, and random topologies. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Packet ---------- *)

let mk_packet ?(ttl = 16) () =
  Netsim.Packet.create ~id:1 ~src:0 ~dst:9 ~size_bits:800 ~ttl ~sent_at:0.

let test_packet_visits () =
  let p = mk_packet () in
  Alcotest.(check int) "no hops yet" 0 (Netsim.Packet.hop_count p);
  Netsim.Packet.visit p 0;
  Netsim.Packet.visit p 3;
  Netsim.Packet.visit p 9;
  Alcotest.(check int) "two hops" 2 (Netsim.Packet.hop_count p);
  Alcotest.(check (list int)) "path order" [ 0; 3; 9 ] (Netsim.Packet.path p)

let test_packet_loop_detection () =
  let p = mk_packet () in
  List.iter (Netsim.Packet.visit p) [ 0; 3; 5 ];
  Alcotest.(check bool) "no loop" false (Netsim.Packet.looped p);
  Netsim.Packet.visit p 3;
  Alcotest.(check bool) "loop" true (Netsim.Packet.looped p)

(* ---------- Link ---------- *)

type 'a outcome = Delivered of 'a * float | Dropped of 'a * Netsim.Types.drop_reason * float

let make_link ?(bandwidth = 1e6) ?(prop = 0.01) ?(capacity = 2) sched log =
  Netsim.Link.create ~sched ~bandwidth_bps:bandwidth ~prop_delay:prop
    ~queue_capacity:capacity
    ~deliver:(fun x -> log := Delivered (x, Dessim.Scheduler.now sched) :: !log)
    ~dropped:(fun x r -> log := Dropped (x, r, Dessim.Scheduler.now sched) :: !log)
    ()

let test_link_delivery_time () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link sched log in
  (* 8000 bits at 1 Mbps = 8 ms transmission + 10 ms propagation. *)
  (match Netsim.Link.send l ~size_bits:8000 "p" with
  | Netsim.Link.Sent -> ()
  | Netsim.Link.Rejected _ -> Alcotest.fail "rejected");
  Dessim.Scheduler.run sched;
  match !log with
  | [ Delivered ("p", t) ] -> check_float "arrival" 0.018 t
  | _ -> Alcotest.fail "expected one delivery"

let test_link_serialization () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link ~capacity:10 sched log in
  (* Two back-to-back packets: the second waits for the first's transmission
     (store-and-forward), so arrivals are 8 ms apart. *)
  ignore (Netsim.Link.send l ~size_bits:8000 "a");
  ignore (Netsim.Link.send l ~size_bits:8000 "b");
  check_float "busy until" 0.016 (Netsim.Link.utilization_busy_until l);
  Dessim.Scheduler.run sched;
  match List.rev !log with
  | [ Delivered ("a", ta); Delivered ("b", tb) ] ->
    check_float "first" 0.018 ta;
    check_float "second" 0.026 tb
  | _ -> Alcotest.fail "expected two deliveries in order"

let test_link_queue_overflow () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link ~capacity:2 sched log in
  ignore (Netsim.Link.send l ~size_bits:8000 "a");
  ignore (Netsim.Link.send l ~size_bits:8000 "b");
  (match Netsim.Link.send l ~size_bits:8000 "c" with
  | Netsim.Link.Rejected Netsim.Types.Queue_overflow -> ()
  | Netsim.Link.Rejected _ | Netsim.Link.Sent -> Alcotest.fail "expected overflow");
  Alcotest.(check int) "queue len" 2 (Netsim.Link.queue_length l);
  Dessim.Scheduler.run sched;
  let delivered = List.filter (function Delivered _ -> true | _ -> false) !log in
  Alcotest.(check int) "two delivered" 2 (List.length delivered)

let test_link_reliable_bypasses_capacity () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link ~capacity:1 sched log in
  ignore (Netsim.Link.send l ~size_bits:8000 "a");
  (match Netsim.Link.send l ~reliable:true ~size_bits:8000 "ctrl" with
  | Netsim.Link.Sent -> ()
  | Netsim.Link.Rejected _ -> Alcotest.fail "reliable send rejected");
  Dessim.Scheduler.run sched;
  let delivered = List.filter (function Delivered _ -> true | _ -> false) !log in
  Alcotest.(check int) "both delivered" 2 (List.length delivered)

let test_link_fail_drops_everything () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link ~capacity:10 sched log in
  ignore (Netsim.Link.send l ~size_bits:8000 "a");
  ignore (Netsim.Link.send l ~size_bits:8000 "b");
  Netsim.Link.fail l;
  Alcotest.(check bool) "down" false (Netsim.Link.is_up l);
  (match Netsim.Link.send l ~size_bits:8000 "c" with
  | Netsim.Link.Rejected Netsim.Types.Link_down -> ()
  | Netsim.Link.Rejected _ | Netsim.Link.Sent -> Alcotest.fail "expected link-down");
  Dessim.Scheduler.run sched;
  let delivered = List.filter (function Delivered _ -> true | _ -> false) !log in
  let drops =
    List.filter (function Dropped (_, Netsim.Types.Link_down, _) -> true | _ -> false) !log
  in
  Alcotest.(check int) "none delivered" 0 (List.length delivered);
  Alcotest.(check int) "three dropped" 3 (List.length drops)

let test_link_fail_drops_in_flight () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link ~capacity:10 sched log in
  ignore (Netsim.Link.send l ~size_bits:8000 "a");
  (* Fail mid-propagation: after transmission (8 ms) but before arrival (18 ms). *)
  ignore (Dessim.Scheduler.schedule sched ~at:0.012 (fun () -> Netsim.Link.fail l));
  Dessim.Scheduler.run sched;
  (match !log with
  | [ Dropped ("a", Netsim.Types.Link_down, t) ] -> check_float "drop time" 0.012 t
  | _ -> Alcotest.fail "expected in-flight drop at failure time");
  Alcotest.(check int) "nothing in flight" 0 (Netsim.Link.in_flight l)

let test_link_restore () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link sched log in
  Netsim.Link.fail l;
  Netsim.Link.restore l;
  Alcotest.(check bool) "up again" true (Netsim.Link.is_up l);
  (match Netsim.Link.send l ~size_bits:8000 "x" with
  | Netsim.Link.Sent -> ()
  | Netsim.Link.Rejected _ -> Alcotest.fail "send after restore");
  Dessim.Scheduler.run sched;
  Alcotest.(check int) "delivered" 1 (List.length !log)

let test_link_fail_idempotent () =
  let sched = Dessim.Scheduler.create () in
  let log = ref [] in
  let l = make_link sched log in
  ignore (Netsim.Link.send l ~size_bits:8000 "a");
  Netsim.Link.fail l;
  Netsim.Link.fail l;
  Alcotest.(check int) "dropped once" 1 (List.length !log)

let test_link_rejects_bad_args () =
  let sched = Dessim.Scheduler.create () in
  let mk ~bw ~prop ~cap () =
    ignore
      (Netsim.Link.create ~sched ~bandwidth_bps:bw ~prop_delay:prop
         ~queue_capacity:cap
         ~deliver:(fun (_ : int) -> ())
         ~dropped:(fun _ _ -> ())
         ())
  in
  Alcotest.check_raises "bandwidth" (Invalid_argument "Link.create: bandwidth")
    (mk ~bw:0. ~prop:0.01 ~cap:1);
  Alcotest.check_raises "prop" (Invalid_argument "Link.create: prop_delay")
    (mk ~bw:1e6 ~prop:(-0.1) ~cap:1);
  Alcotest.check_raises "capacity" (Invalid_argument "Link.create: queue_capacity")
    (mk ~bw:1e6 ~prop:0.01 ~cap:0)

(* ---------- Topology ---------- *)

let line n =
  Netsim.Topology.create ~nodes:n ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))

let test_topology_basics () =
  let t = Netsim.Topology.create ~nodes:4 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check int) "nodes" 4 (Netsim.Topology.node_count t);
  Alcotest.(check int) "edges" 4 (Netsim.Topology.edge_count t);
  Alcotest.(check (list int)) "neighbors" [ 0; 2 ] (Netsim.Topology.neighbors t 1);
  Alcotest.(check bool) "has edge" true (Netsim.Topology.has_edge t 3 0);
  Alcotest.(check bool) "no edge" false (Netsim.Topology.has_edge t 0 2);
  Alcotest.(check int) "degree" 2 (Netsim.Topology.degree t 0)

let test_topology_dedup_and_validation () =
  let t = Netsim.Topology.create ~nodes:3 ~edges:[ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "dedup" 1 (Netsim.Topology.edge_count t);
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.create: self-loop")
    (fun () -> ignore (Netsim.Topology.create ~nodes:3 ~edges:[ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Topology.create: node 5 out of range")
    (fun () -> ignore (Netsim.Topology.create ~nodes:3 ~edges:[ (0, 5) ]))

let test_topology_bfs () =
  let t = line 5 in
  let d = Netsim.Topology.bfs_distances t 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d

let test_topology_shortest_path () =
  let t = Netsim.Topology.create ~nodes:5 ~edges:[ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4) ] in
  (match Netsim.Topology.shortest_path t 0 4 with
  | Some p -> Alcotest.(check (list int)) "short way" [ 0; 1; 4 ] p
  | None -> Alcotest.fail "path expected");
  let disconnected = Netsim.Topology.create ~nodes:3 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "no path" true
    (Netsim.Topology.shortest_path disconnected 0 2 = None)

let test_topology_connectivity () =
  Alcotest.(check bool) "line connected" true (Netsim.Topology.is_connected (line 6));
  let split = Netsim.Topology.create ~nodes:4 ~edges:[ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "split" false (Netsim.Topology.is_connected split);
  match Netsim.Topology.components split with
  | [ [ 0; 1 ]; [ 2; 3 ] ] -> ()
  | _ -> Alcotest.fail "components"

let test_topology_remove_add_edge () =
  let t = line 3 in
  let t' = Netsim.Topology.remove_edge t 0 1 in
  Alcotest.(check bool) "removed" false (Netsim.Topology.has_edge t' 0 1);
  Alcotest.(check bool) "original intact" true (Netsim.Topology.has_edge t 0 1);
  let t'' = Netsim.Topology.add_edge t' 0 2 in
  Alcotest.(check bool) "added" true (Netsim.Topology.has_edge t'' 0 2)

let test_topology_diameter_avg () =
  let t = line 4 in
  Alcotest.(check int) "diameter" 3 (Netsim.Topology.diameter t);
  (* Pairs at distance: 1 x6? line 0-1-2-3: dists 1,2,3,1,2,1 -> mean 10/6 both ways. *)
  check_float "avg path" (10. /. 6.) (Netsim.Topology.average_path_length t)

(* ---------- Mesh ---------- *)

let test_mesh_degree_4_is_grid () =
  let t = Netsim.Mesh.generate ~rows:4 ~cols:4 ~degree:4 in
  Alcotest.(check int) "nodes" 16 (Netsim.Topology.node_count t);
  (* Grid edges: 4 rows x 3 + 4 cols x 3 = 24. *)
  Alcotest.(check int) "edges" 24 (Netsim.Topology.edge_count t);
  Alcotest.(check (list int)) "center neighbors" [ 1; 4; 6; 9 ]
    (Netsim.Topology.neighbors t 5)

let test_mesh_interior_regularity () =
  List.iter
    (fun degree ->
      let rows = 7 and cols = 7 in
      let t = Netsim.Mesh.generate ~rows ~cols ~degree in
      let interior = Netsim.Mesh.interior_nodes ~rows ~cols ~degree in
      Alcotest.(check bool) "has interior nodes" true (interior <> []);
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "degree %d node %d" degree n)
            degree (Netsim.Topology.degree t n))
        interior)
    [ 3; 4; 5; 6; 7; 8 ]

let test_mesh_connected_all_degrees () =
  List.iter
    (fun degree ->
      let t = Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree in
      Alcotest.(check bool)
        (Printf.sprintf "degree %d connected" degree)
        true (Netsim.Topology.is_connected t))
    [ 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let test_mesh_deterministic () =
  let a = Netsim.Mesh.generate ~rows:6 ~cols:5 ~degree:5 in
  let b = Netsim.Mesh.generate ~rows:6 ~cols:5 ~degree:5 in
  Alcotest.(check bool) "same edges" true
    (Netsim.Topology.edges a = Netsim.Topology.edges b)

let test_mesh_rows_cols_ids () =
  Alcotest.(check int) "node_of" 17 (Netsim.Mesh.node_of ~cols:7 ~row:2 ~col:3);
  Alcotest.(check (list int)) "first row" [ 0; 1; 2 ]
    (Netsim.Mesh.first_row ~rows:3 ~cols:3);
  Alcotest.(check (list int)) "last row" [ 6; 7; 8 ]
    (Netsim.Mesh.last_row ~rows:3 ~cols:3)

let test_mesh_denser_shortens_paths () =
  let avg d =
    Netsim.Topology.average_path_length (Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree:d)
  in
  Alcotest.(check bool) "3 > 4" true (avg 3 > avg 4);
  Alcotest.(check bool) "4 > 6" true (avg 4 > avg 6);
  Alcotest.(check bool) "6 > 8" true (avg 6 > avg 8)

let test_mesh_rejects_bad_args () =
  Alcotest.check_raises "too small" (Invalid_argument "Mesh.generate: need at least 3x3")
    (fun () -> ignore (Netsim.Mesh.generate ~rows:2 ~cols:5 ~degree:4));
  Alcotest.check_raises "degree too low"
    (Invalid_argument "Mesh.generate: degree 2 outside [3, 12]") (fun () ->
      ignore (Netsim.Mesh.generate ~rows:5 ~cols:5 ~degree:2))

let test_torus_every_node_regular () =
  List.iter
    (fun degree ->
      let t = Netsim.Mesh.generate_torus ~rows:6 ~cols:7 ~degree in
      for n = 0 to Netsim.Topology.node_count t - 1 do
        Alcotest.(check int)
          (Printf.sprintf "torus degree %d node %d" degree n)
          degree (Netsim.Topology.degree t n)
      done;
      Alcotest.(check bool) "connected" true (Netsim.Topology.is_connected t))
    [ 3; 4; 5; 6; 7; 8 ]

let test_torus_shrinks_diameter () =
  let flat = Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree:4 in
  let torus = Netsim.Mesh.generate_torus ~rows:7 ~cols:7 ~degree:4 in
  Alcotest.(check bool) "smaller diameter" true
    (Netsim.Topology.diameter torus < Netsim.Topology.diameter flat)

let test_torus_validation () =
  Alcotest.check_raises "too small" (Invalid_argument "Mesh.generate: a torus needs at least 5x5")
    (fun () -> ignore (Netsim.Mesh.generate_torus ~rows:4 ~cols:7 ~degree:4));
  Alcotest.check_raises "odd degree odd rows"
    (Invalid_argument "Mesh.generate: an odd-degree torus needs an even row count")
    (fun () -> ignore (Netsim.Mesh.generate_torus ~rows:7 ~cols:6 ~degree:5))

(* ---------- Classic topologies ---------- *)

let test_classic_shapes () =
  let line = Netsim.Classic.line 5 in
  Alcotest.(check int) "line edges" 4 (Netsim.Topology.edge_count line);
  Alcotest.(check int) "line diameter" 4 (Netsim.Topology.diameter line);
  let ring = Netsim.Classic.ring 6 in
  Alcotest.(check int) "ring edges" 6 (Netsim.Topology.edge_count ring);
  Alcotest.(check int) "ring diameter" 3 (Netsim.Topology.diameter ring);
  let star = Netsim.Classic.star 7 in
  Alcotest.(check int) "star center degree" 6 (Netsim.Topology.degree star 0);
  Alcotest.(check int) "star diameter" 2 (Netsim.Topology.diameter star);
  let k5 = Netsim.Classic.complete 5 in
  Alcotest.(check int) "k5 edges" 10 (Netsim.Topology.edge_count k5);
  Alcotest.(check int) "k5 diameter" 1 (Netsim.Topology.diameter k5);
  let tree = Netsim.Classic.binary_tree ~depth:3 in
  Alcotest.(check int) "tree nodes" 15 (Netsim.Topology.node_count tree);
  Alcotest.(check int) "tree edges" 14 (Netsim.Topology.edge_count tree);
  Alcotest.(check bool) "tree connected" true (Netsim.Topology.is_connected tree)

let test_classic_validation () =
  Alcotest.check_raises "line" (Invalid_argument "Classic.line: need at least 2 nodes")
    (fun () -> ignore (Netsim.Classic.line 1));
  Alcotest.check_raises "ring" (Invalid_argument "Classic.ring: need at least 3 nodes")
    (fun () -> ignore (Netsim.Classic.ring 2))

let prop_mesh_interior_regular =
  QCheck.Test.make ~name:"mesh interior degree = requested" ~count:60
    QCheck.(triple (3 -- 10) (5 -- 9) (5 -- 9))
    (fun (degree, rows, cols) ->
      let t = Netsim.Mesh.generate ~rows ~cols ~degree in
      let interior = Netsim.Mesh.interior_nodes ~rows ~cols ~degree in
      List.for_all (fun n -> Netsim.Topology.degree t n = degree) interior)

(* ---------- Random topologies ---------- *)

let test_erdos_renyi_connected () =
  let rng = Dessim.Rng.create 5 in
  for _ = 1 to 10 do
    let t = Netsim.Random_topo.erdos_renyi rng ~nodes:20 ~p:0.05 in
    Alcotest.(check bool) "connected" true (Netsim.Topology.is_connected t)
  done

let test_waxman_connected () =
  let rng = Dessim.Rng.create 6 in
  for _ = 1 to 10 do
    let t = Netsim.Random_topo.waxman rng ~nodes:25 ~alpha:0.4 ~beta:0.2 in
    Alcotest.(check bool) "connected" true (Netsim.Topology.is_connected t);
    Alcotest.(check int) "nodes" 25 (Netsim.Topology.node_count t)
  done

let test_ensure_connected () =
  let rng = Dessim.Rng.create 7 in
  let split = Netsim.Topology.create ~nodes:6 ~edges:[ (0, 1); (2, 3); (4, 5) ] in
  let fixed = Netsim.Random_topo.ensure_connected rng split in
  Alcotest.(check bool) "connected" true (Netsim.Topology.is_connected fixed)

(* ---------- Dot ---------- *)

let test_dot_output () =
  let t = line 3 in
  let dot = Netsim.Dot.to_dot ~highlight:[ (1, 2) ] t in
  Alcotest.(check bool) "graph header" true
    (String.length dot > 0 && String.sub dot 0 5 = "graph");
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "edge listed" true (contains dot "0 -- 1");
  Alcotest.(check bool) "highlight" true (contains dot "1 -- 2 [color=red");
  match Netsim.Dot.degree_histogram t with
  | [ (1, 2); (2, 1) ] -> ()
  | _ -> Alcotest.fail "histogram"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "netsim"
    [
      ( "packet",
        [
          Alcotest.test_case "visits" `Quick test_packet_visits;
          Alcotest.test_case "loop detection" `Quick test_packet_loop_detection;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "reliable bypass" `Quick test_link_reliable_bypasses_capacity;
          Alcotest.test_case "fail drops all" `Quick test_link_fail_drops_everything;
          Alcotest.test_case "fail drops in-flight" `Quick test_link_fail_drops_in_flight;
          Alcotest.test_case "restore" `Quick test_link_restore;
          Alcotest.test_case "fail idempotent" `Quick test_link_fail_idempotent;
          Alcotest.test_case "bad args" `Quick test_link_rejects_bad_args;
        ] );
      ( "topology",
        [
          Alcotest.test_case "basics" `Quick test_topology_basics;
          Alcotest.test_case "dedup/validation" `Quick test_topology_dedup_and_validation;
          Alcotest.test_case "bfs" `Quick test_topology_bfs;
          Alcotest.test_case "shortest path" `Quick test_topology_shortest_path;
          Alcotest.test_case "connectivity" `Quick test_topology_connectivity;
          Alcotest.test_case "remove/add edge" `Quick test_topology_remove_add_edge;
          Alcotest.test_case "diameter/avg" `Quick test_topology_diameter_avg;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "degree 4 grid" `Quick test_mesh_degree_4_is_grid;
          Alcotest.test_case "interior regularity" `Quick test_mesh_interior_regularity;
          Alcotest.test_case "connected all degrees" `Quick test_mesh_connected_all_degrees;
          Alcotest.test_case "deterministic" `Quick test_mesh_deterministic;
          Alcotest.test_case "ids and rows" `Quick test_mesh_rows_cols_ids;
          Alcotest.test_case "denser = shorter paths" `Quick test_mesh_denser_shortens_paths;
          Alcotest.test_case "bad args" `Quick test_mesh_rejects_bad_args;
          Alcotest.test_case "torus regular" `Quick test_torus_every_node_regular;
          Alcotest.test_case "torus diameter" `Quick test_torus_shrinks_diameter;
          Alcotest.test_case "torus validation" `Quick test_torus_validation;
        ]
        @ qsuite [ prop_mesh_interior_regular ] );
      ( "classic",
        [
          Alcotest.test_case "shapes" `Quick test_classic_shapes;
          Alcotest.test_case "validation" `Quick test_classic_validation;
        ] );
      ( "random-topo",
        [
          Alcotest.test_case "erdos-renyi connected" `Quick test_erdos_renyi_connected;
          Alcotest.test_case "waxman connected" `Quick test_waxman_connected;
          Alcotest.test_case "ensure_connected" `Quick test_ensure_connected;
        ] );
      ("dot", [ Alcotest.test_case "output" `Quick test_dot_output ]);
    ]
