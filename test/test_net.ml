(* Tests for the random topology generator families — Barabási–Albert and
   the hierarchical AS-like model added for the internet-scale sweeps — plus
   the rewritten ER sampler, batched stitching, and scale smoke tests through
   every paper protocol with the BFS oracle. *)

module T = Netsim.Topology
module RT = Netsim.Random_topo

let rng seed = Dessim.Rng.create seed

let degrees t = List.init (T.node_count t) (T.degree t)

(* ---------- Barabási–Albert ---------- *)

let test_ba_basic () =
  let t = RT.barabasi_albert (rng 42) ~nodes:200 ~m:3 in
  Alcotest.(check int) "node count" 200 (T.node_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t);
  Alcotest.(check int) "min degree = m" 3
    (List.fold_left min max_int (degrees t));
  (* seed clique on m+1 nodes plus m edges per later node, no duplicates *)
  Alcotest.(check int) "edge count" ((3 * 4 / 2) + (3 * (200 - 4)))
    (T.edge_count t)

let test_ba_heavy_tail () =
  let t = RT.barabasi_albert (rng 7) ~nodes:2000 ~m:2 in
  let ds = degrees t in
  let max_deg = List.fold_left max 0 ds in
  let small = List.length (List.filter (fun d -> d <= 3) ds) in
  (* Power-law degrees: a hub far above the mean (~4) coexisting with a
     majority of minimum-degree nodes (p(2) + p(3) ~ 0.7 for m = 2). A
     regular or Poisson graph of the same mean fails both. *)
  Alcotest.(check bool) "has a hub" true (max_deg >= 20);
  Alcotest.(check bool) "most nodes near min degree" true
    (float_of_int small /. 2000. > 0.5)

let test_ba_deterministic () =
  let a = RT.barabasi_albert (rng 123) ~nodes:300 ~m:2 in
  let b = RT.barabasi_albert (rng 123) ~nodes:300 ~m:2 in
  let c = RT.barabasi_albert (rng 124) ~nodes:300 ~m:2 in
  Alcotest.(check bool) "same seed, same graph" true (T.edges a = T.edges b);
  Alcotest.(check bool) "different seed, different graph" true
    (T.edges a <> T.edges c)

let test_ba_invalid () =
  Alcotest.check_raises "m = 0"
    (Invalid_argument "Random_topo.barabasi_albert: m < 1") (fun () ->
      ignore (RT.barabasi_albert (rng 1) ~nodes:10 ~m:0));
  Alcotest.check_raises "nodes = m + 1"
    (Invalid_argument "Random_topo.barabasi_albert: nodes must exceed m + 1")
    (fun () -> ignore (RT.barabasi_albert (rng 1) ~nodes:3 ~m:2))

(* ---------- hierarchical ---------- *)

let test_hier_tiers () =
  let t1 = 4 and t2 = 10 and stubs = 50 in
  let t =
    RT.hierarchical (rng 9) ~t1 ~t2 ~stubs ~t2_uplinks:2 ~stub_uplinks:2 ()
  in
  Alcotest.(check int) "node count" (t1 + t2 + stubs) (T.node_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t);
  (* tier-1 core is a full clique *)
  for u = 0 to t1 - 1 do
    for v = u + 1 to t1 - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "core edge %d-%d" u v)
        true (T.has_edge t u v)
    done
  done;
  (* each tier-2 node has exactly [t2_uplinks] core neighbors *)
  for v = t1 to t1 + t2 - 1 do
    let ups = List.filter (fun u -> u < t1) (T.neighbors t v) in
    Alcotest.(check int) (Printf.sprintf "uplinks of %d" v) 2 (List.length ups)
  done;
  (* each stub attaches to exactly [stub_uplinks] tier-2 providers and
     nothing else *)
  for v = t1 + t2 to t1 + t2 + stubs - 1 do
    let ns = T.neighbors t v in
    Alcotest.(check int) (Printf.sprintf "stub degree of %d" v) 2
      (List.length ns);
    List.iter
      (fun u ->
        Alcotest.(check bool)
          (Printf.sprintf "stub %d attaches to tier-2" v)
          true
          (u >= t1 && u < t1 + t2))
      ns
  done

let test_hier_auto () =
  let t = RT.hierarchical_auto (rng 11) ~nodes:512 in
  Alcotest.(check int) "node count" 512 (T.node_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t);
  (* 512 /. 64 = 8 core nodes, fully meshed *)
  for u = 0 to 7 do
    for v = u + 1 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "core edge %d-%d" u v)
        true (T.has_edge t u v)
    done
  done

let test_hier_deterministic () =
  let a = RT.hierarchical_auto (rng 5) ~nodes:256 in
  let b = RT.hierarchical_auto (rng 5) ~nodes:256 in
  Alcotest.(check bool) "same seed, same graph" true (T.edges a = T.edges b)

let test_hier_invalid () =
  Alcotest.check_raises "uplinks exceed tier"
    (Invalid_argument "Random_topo.hierarchical: t2_uplinks outside [1, t1]")
    (fun () ->
      ignore
        (RT.hierarchical (rng 1) ~t1:2 ~t2:4 ~stubs:4 ~t2_uplinks:3
           ~stub_uplinks:1 ()));
  Alcotest.check_raises "auto too small"
    (Invalid_argument "Random_topo.hierarchical_auto: nodes < 8") (fun () ->
      ignore (RT.hierarchical_auto (rng 1) ~nodes:7))

(* ---------- ER sampler and stitching ---------- *)

let test_er_extremes () =
  (* p = 0: nothing sampled, stitching alone must connect -> a tree *)
  let t0 = RT.erdos_renyi (rng 3) ~nodes:40 ~p:0. in
  Alcotest.(check bool) "p=0 connected" true (T.is_connected t0);
  Alcotest.(check int) "p=0 is a tree" 39 (T.edge_count t0);
  (* p = 1: the complete graph, bypassing the geometric sampler *)
  let t1 = RT.erdos_renyi (rng 3) ~nodes:40 ~p:1. in
  Alcotest.(check int) "p=1 complete" (40 * 39 / 2) (T.edge_count t1)

let test_er_mean_degree () =
  (* The geometric-skip sampler must still produce G(n, p): at n = 2000 and
     target mean degree 6 the edge count concentrates tightly (sd ~ 77). *)
  let n = 2000 in
  let t = RT.erdos_renyi (rng 17) ~nodes:n ~p:(6. /. float_of_int (n - 1)) in
  let mean = 2. *. float_of_int (T.edge_count t) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean degree %.2f within [5.5, 6.5]" mean)
    true
    (mean > 5.5 && mean < 6.5)

let test_ensure_connected_batch () =
  (* Many singleton components stitched in one rebuild. *)
  let t = RT.ensure_connected (rng 2) (T.create ~nodes:50 ~edges:[]) in
  Alcotest.(check bool) "connected" true (T.is_connected t);
  Alcotest.(check int) "one stitch per extra component" 49 (T.edge_count t)

(* ---------- adjacency queries ---------- *)

(* [has_edge] scans a sorted neighbor list; it must agree with the
   canonical edge list for every ordered pair, and reject ids outside the
   graph. *)
(* A 40-node graph from a shuffled edge list that repeats edges in both
   orientations, so the rows must deduplicate and canonicalise. *)
let shuffled_input =
  let r = rng 12 in
  let base =
    List.init 90 (fun _ ->
        let u = Dessim.Rng.int r 40 in
        (u, (u + 1 + Dessim.Rng.int r 39) mod 40))
  in
  let every k l = List.filteri (fun i _ -> i mod k = 0) l in
  let a =
    Array.of_list (base @ List.map (fun (u, v) -> (v, u)) (every 3 base) @ every 5 base)
  in
  Dessim.Rng.shuffle r a;
  Array.to_list a

(* The slot layout against an independent source: the edge list each graph
   was built from. [edges] and [has_edge] both read the rows, so neither can
   vouch for the other. A generator does not expose its input, so its graphs
   are checked against their [edges] list. *)
let test_has_edge_matches_edges () =
  let generated t = (t, T.edges t) in
  let graphs =
    [
      ("mesh 7x7 d4", generated (Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree:4));
      ("mesh 5x6 d8", generated (Netsim.Mesh.generate ~rows:5 ~cols:6 ~degree:8));
      ("ER 60", generated (RT.erdos_renyi (rng 4) ~nodes:60 ~p:0.1));
      ("BA 120", generated (RT.barabasi_albert (rng 8) ~nodes:120 ~m:3));
      ("hier 128", generated (RT.hierarchical_auto (rng 6) ~nodes:128));
      ("torus 6x7 d6", generated (Netsim.Mesh.generate_torus ~rows:6 ~cols:7 ~degree:6));
      ("shuffled 40", (T.create ~nodes:40 ~edges:shuffled_input, shuffled_input));
    ]
  in
  List.iter
    (fun (name, (t, input)) ->
      let n = T.node_count t in
      let canonical =
        List.sort_uniq compare
          (List.map (fun (u, v) -> if u < v then (u, v) else (v, u)) input)
      in
      if T.edges t <> canonical then
        Alcotest.failf "%s: edges differ from the canonical input list" name;
      Alcotest.(check int) (name ^ ": slot count") (2 * T.edge_count t) (T.slot_count t);
      Alcotest.(check int) (name ^ ": edge count") (List.length canonical) (T.edge_count t);
      let adj = Array.make n [] in
      List.iter
        (fun (u, v) ->
          adj.(u) <- v :: adj.(u);
          adj.(v) <- u :: adj.(v))
        canonical;
      let next = ref 0 in
      for u = 0 to n - 1 do
        let expected = List.sort compare adj.(u) in
        let first = T.first_slot t u in
        if first <> !next then
          Alcotest.failf "%s: row %d starts at slot %d, not %d" name u first !next;
        let row = List.init (T.end_slot t u - first) (fun i -> T.slot_target t (first + i)) in
        Alcotest.(check (list int)) (Printf.sprintf "%s: row %d" name u) expected row;
        Alcotest.(check (list int))
          (Printf.sprintf "%s: neighbors %d" name u)
          expected (T.neighbors t u);
        List.iteri
          (fun i v ->
            if T.slot t u v <> first + i then
              Alcotest.failf "%s: slot %d %d is %d, not %d" name u v (T.slot t u v) (first + i))
          expected;
        for v = -1 to n do
          let adjacent = List.mem v expected in
          if (not adjacent) && T.slot t u v <> -1 then
            Alcotest.failf "%s: slot %d %d is %d for non-neighbors" name u v (T.slot t u v);
          if T.has_edge t u v <> adjacent then
            Alcotest.failf "%s: has_edge %d %d is %b, the input says %b" name u v
              (not adjacent) adjacent
        done;
        List.iter
          (fun bad ->
            if T.slot t bad u <> -1 || T.has_edge t bad u then
              Alcotest.failf "%s: id %d has a slot toward %d" name bad u)
          [ -1; n ];
        next := T.end_slot t u
      done;
      Alcotest.(check int) (name ^ ": rows cover every slot") (T.slot_count t) !next)
    graphs

(* [create] checks edges in list order and names the first bad one. *)
let test_create_first_bad_edge () =
  let raises expected edges =
    Alcotest.check_raises expected (Invalid_argument expected) (fun () ->
        ignore (T.create ~nodes:5 ~edges))
  in
  raises "Topology.create: self-loop" [ (0, 1); (2, 2); (7, 1) ];
  raises "Topology.create: node 7 out of range" [ (0, 1); (7, 1); (2, 2) ];
  raises "Topology.create: node 6 out of range" [ (4, 6); (-1, 2) ];
  raises "Topology.create: node -1 out of range" [ (1, 0); (-1, 2); (9, 9) ];
  raises "Topology.create: node 5 out of range" [ (5, 5) ];
  Alcotest.check_raises "no nodes"
    (Invalid_argument "Topology.create: nodes must be positive") (fun () ->
      ignore (T.create ~nodes:0 ~edges:[ (0, 0) ]))

(* ---------- scale smoke ---------- *)

let test_generate_10k () =
  let ba = RT.barabasi_albert (rng 1) ~nodes:10_000 ~m:2 in
  Alcotest.(check bool) "BA 10k connected" true (T.is_connected ba);
  Alcotest.(check int) "BA 10k min degree" 2
    (List.fold_left min max_int (degrees ba));
  let hier = RT.hierarchical_auto (rng 1) ~nodes:10_000 in
  Alcotest.(check bool) "hier 10k connected" true (T.is_connected hier);
  let er =
    RT.erdos_renyi (rng 1) ~nodes:10_000 ~p:(6. /. float_of_int 9_999)
  in
  Alcotest.(check bool) "ER 10k connected" true (T.is_connected er)

(* One large BA simulation per paper protocol, checked against the BFS
   oracle at quiescence — the integration path the campaign's topo section
   drives, pinned here at each protocol's feasible ceiling: 1024 nodes for
   the distance-vector pair, 256 for path-vector, whose adj-RIB-in keeps
   full paths per (node, neighbor, destination) and measures in GB at 1024
   (the scale audit in DESIGN.md §15). Timeline scaling mirrors the
   section: initial convergence and post-failure re-convergence both need
   reach × per-hop pacing. *)
let test_protocol_oracle_at_scale () =
  let module E = Convergence.Engine_registry in
  List.iter
    (fun engine ->
      let name = E.name engine in
      let pv = name = "BGP" || name = "BGP-3" in
      let nodes = if pv then 256 else 1024 in
      let topo = RT.barabasi_albert (rng 31) ~nodes ~m:2 in
      let ecc a =
        Array.fold_left (fun m d -> if d < max_int then max m d else m) 0 a
      in
      let dist0 = T.bfs_distances topo 0 in
      let want = min (ecc dist0) 10 in
      let dst =
        let found = ref (nodes - 1) in
        Array.iteri
          (fun v d -> if d = want && !found = nodes - 1 then found := v)
          dist0;
        !found
      in
      let dhat = max (ecc dist0) (ecc (T.bfs_distances topo dst)) in
      let perhop =
        if name = "BGP" then 32. else if name = "BGP-3" then 5. else 6.
      in
      let allowance = 30. +. (1.3 *. perhop *. float_of_int dhat) in
      let cfg =
        {
          Convergence.Config.quick with
          rows = 3;
          cols = 3;
          degree = 4;
          traffic_start = allowance;
          warmup = allowance +. 10.;
          failure_time = allowance +. 20.;
          sim_end = allowance +. 20. +. Float.max 120. allowance;
          seed = 31;
        }
      in
      let max_metric =
        if name = "RIP" || name = "DBF" then
          Some Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric
        else None
      in
      let mismatches = ref (-1) in
      let r =
        E.run ~topology:topo ~src:0 ~dst
          ~on_quiesce:(fun view ->
            mismatches := List.length (Check.Oracle.check ?max_metric view))
          cfg engine
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: oracle clean at %d nodes" name nodes)
        0 !mismatches;
      Alcotest.(check bool) (name ^ ": delivered traffic") true
        ((One_flow.get r).Convergence.Metrics.f_delivered > 0))
    E.paper_four

let () =
  Alcotest.run "net"
    [
      ( "ba",
        [
          Alcotest.test_case "basic invariants" `Quick test_ba_basic;
          Alcotest.test_case "heavy tail" `Quick test_ba_heavy_tail;
          Alcotest.test_case "deterministic" `Quick test_ba_deterministic;
          Alcotest.test_case "invalid args" `Quick test_ba_invalid;
        ] );
      ( "hier",
        [
          Alcotest.test_case "tier/uplink invariants" `Quick test_hier_tiers;
          Alcotest.test_case "auto parameterization" `Quick test_hier_auto;
          Alcotest.test_case "deterministic" `Quick test_hier_deterministic;
          Alcotest.test_case "invalid args" `Quick test_hier_invalid;
        ] );
      ( "er",
        [
          Alcotest.test_case "p extremes" `Quick test_er_extremes;
          Alcotest.test_case "mean degree at 2k" `Quick test_er_mean_degree;
          Alcotest.test_case "batched stitching" `Quick
            test_ensure_connected_batch;
        ] );
      ( "topology",
        [
          Alcotest.test_case "has_edge agrees with edges" `Quick
            test_has_edge_matches_edges;
          Alcotest.test_case "create names the first bad edge" `Quick
            test_create_first_bad_edge;
        ] );
      ( "scale",
        [
          Alcotest.test_case "10k generation" `Quick test_generate_10k;
          Alcotest.test_case "oracle smoke at protocol scale ceilings" `Slow
            test_protocol_oracle_at_scale;
        ] );
    ]
