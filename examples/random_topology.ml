(* Beyond regular meshes (the paper's future work): the same single-failure
   study on random Waxman graphs, the classic random-topology model of
   1990s/2000s network simulation.

   For each random topology we pick the two most distant routers as the
   sender/receiver pair, fail a random link on their forwarding path, and
   compare DBF with BGP-3. Denser Waxman graphs (higher alpha) behave like
   the paper's higher-degree meshes: fewer drops, shorter convergence.

     dune exec examples/random_topology.exe *)

let most_distant_pair topo =
  let n = Netsim.Topology.node_count topo in
  let best = ref (0, 0, 0) in
  for src = 0 to n - 1 do
    let dist = Netsim.Topology.bfs_distances topo src in
    Array.iteri
      (fun dst d ->
        let _, _, best_d = !best in
        if d <> max_int && d > best_d then best := (src, dst, d))
      dist
  done;
  let src, dst, _ = !best in
  (src, dst)

let run_on alpha seed =
  let rng = Dessim.Rng.create (seed * 7919) in
  let topo = Netsim.Random_topo.waxman rng ~nodes:49 ~alpha ~beta:0.25 in
  let src, dst = most_distant_pair topo in
  let cfg = { Convergence.Config.quick with seed; send_rate_pps = 100. } in
  let one engine =
    let m = Convergence.Engine_registry.run ~topology:topo ~src ~dst cfg engine in
    (* The scenario's one flow. *)
    let f = List.hd m.Convergence.Metrics.m_flows in
    Fmt.pr
      "  %-6s drops: no-route %4d, ttl %3d | fwd conv %5.2f s | routing conv %6.2f s@."
      m.Convergence.Metrics.m_protocol f.Convergence.Metrics.f_drops_no_route
      f.Convergence.Metrics.f_drops_ttl f.Convergence.Metrics.f_fwd_convergence
      m.Convergence.Metrics.m_routing_convergence
  in
  Fmt.pr "Waxman alpha=%.2f seed=%d: %d links, avg degree %.1f, flow %d->%d@."
    alpha seed
    (Netsim.Topology.edge_count topo)
    (2. *. float_of_int (Netsim.Topology.edge_count topo) /. 49.)
    src dst;
  one Convergence.Engine_registry.dbf;
  one Convergence.Engine_registry.bgp3

let () =
  List.iter
    (fun alpha ->
      List.iter (run_on alpha) [ 1; 2; 3 ];
      Fmt.pr "@.")
    [ 0.25; 0.5 ]
