(* The paper's headline comparison, in miniature: the same topology, the same
   flow, the same failure - under RIP, DBF, BGP, and BGP-3 - at a sparse
   (degree 3) and a rich (degree 6) connectivity level.

   Expected shape (paper Observations 1-4):
   - RIP drops packets for tens of seconds at every degree (no alternate
     path information; recovery rides the 30 s periodic update);
   - DBF and both BGPs barely drop anything, and nothing at degree 6;
   - BGP's routing convergence is ~10x BGP-3's (the MRAI ratio), yet their
     delivery is nearly identical: convergence time is not packet delivery.

     dune exec examples/protocol_comparison.exe *)

let () =
  let sweep =
    Convergence.Experiments.
      {
        degrees = [ 3; 6 ];
        runs = 5;
        base = { Convergence.Config.default with send_rate_pps = 100. };
      }
  in
  let section =
    Campaign.Sections.grid ~name:"protocol-comparison"
      ~engines:Convergence.Engine_registry.paper_four ()
  in
  let artifact =
    Campaign.Driver.run ~jobs:(Campaign.Pool.default_jobs ()) ~mode:"custom"
      sweep section
  in
  List.iter
    (fun degree ->
      Fmt.pr "@.--- node degree %d ---@." degree;
      List.iter
        (fun (g : Campaign.Artifact.aggregate) ->
          let m name =
            (List.assoc name g.Campaign.Artifact.a_metrics).Campaign.Artifact.mean
          in
          if g.Campaign.Artifact.a_degree = degree then
            Fmt.pr
              "%-6s runs=%d | delivered %.1f/%.1f | drops: no-route %.1f, ttl \
               %.1f | conv: fwd %.2fs, routing %.2fs | ctrl msgs %.0f@."
              g.Campaign.Artifact.a_protocol g.Campaign.Artifact.a_runs
              (m "delivered") (m "sent") (m "drops_no_route") (m "drops_ttl")
              (m "fwd_convergence") (m "routing_convergence")
              (m "ctrl_messages"))
        artifact.Campaign.Artifact.aggregates)
    sweep.Convergence.Experiments.degrees;
  Fmt.pr
    "@.Reading guide: 'no-route' drops happen while a router has no usable@.\
     next hop (the switch-over period); 'conv: fwd' is when the sender's@.\
     forwarding path stops changing; 'conv: routing' is when the last router@.\
     stops changing its table. RIP's drops dwarf everyone else's, and the@.\
     BGP vs BGP-3 rows show MRAI stretching convergence without changing@.\
     delivery.@."
