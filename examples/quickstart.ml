(* Quickstart: run the paper's canonical scenario once.

   A 7x7 regular mesh of degree 4 runs Distributed Bellman-Ford; a CBR flow
   crosses it from the first row to the last; at t = 400 s one link on the
   flow's path fails. The run report shows every packet's fate and the two
   convergence delays the paper measures.

     dune exec examples/quickstart.exe *)

let () =
  let cfg = Convergence.Config.default in
  Fmt.pr "Scenario:@.  %a@.@." Convergence.Config.pp cfg;
  let m = Convergence.Engine_registry.run cfg Convergence.Engine_registry.dbf in
  Fmt.pr "%a@.@." Convergence.Metrics.pp_multi m;
  (* The scenario's one flow. *)
  let flow = List.hd m.Convergence.Metrics.m_flows in
  let delivered_pct =
    100. *. float_of_int flow.Convergence.Metrics.f_delivered
    /. float_of_int flow.Convergence.Metrics.f_sent
  in
  Fmt.pr
    "DBF delivered %.2f%% of all packets across the failure. Its forwarding@.\
     path settled %g s after the failure, which is the %g s detection delay@.\
     itself: DBF switched to a cached alternate path the moment the failure@.\
     was detected (the paper's zero-time switch-over), so only packets@.\
     already in flight on the dead link were lost.@."
    delivered_pct flow.Convergence.Metrics.f_fwd_convergence
    cfg.Convergence.Config.detection_delay
