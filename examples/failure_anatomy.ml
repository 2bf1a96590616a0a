(* The paper's Figure 1, reenacted: how packets can still be delivered while
   routing is converging.

   We pin the scenario completely (sender router, receiver router, failed
   link) on a small mesh, then narrate what the forwarding path does:

   (a) before the failure packets follow the shortest path;
   (b) when the link fails, the adjacent router keeps sending into the dead
       link until detection (those packets are lost);
   (c) the adjacent router switches to an alternate next hop: packets now
       take a non-shortest but working path;
   (d) the protocol converges to the new shortest path.

     dune exec examples/failure_anatomy.exe *)

let () =
  let cfg =
    {
      Convergence.Config.quick with
      rows = 4;
      cols = 4;
      degree = 4;
      send_rate_pps = 100.;
    }
  in
  let normalized t = t -. cfg.Convergence.Config.failure_time in
  Fmt.pr
    "4x4 mesh, degree 4. Flow 0 -> 15. A randomly chosen link on the flow's@.\
     forwarding path fails at t=0 (times below are relative to the failure).@.@.";
  let narrate (r : Obs.Sink.record) =
    match r.event with
    | Obs.Event.Link_failed { u; v } ->
      Fmt.pr "%+8.2fs  (b) link %d-%d fails; router %d still forwards into it@."
        (normalized r.time) u v u
    | Obs.Event.Path_changed { kind; path; _ } ->
      let p =
        match kind with
        | Obs.Event.Path_complete -> Convergence.Observer.Complete path
        | Obs.Event.Path_broken -> Convergence.Observer.Broken path
        | Obs.Event.Path_looping -> Convergence.Observer.Looping path
      in
      let tag =
        match p with
        | Convergence.Observer.Complete _ -> "forwarding works via"
        | Convergence.Observer.Broken _ -> "packets are being dropped at the end of"
        | Convergence.Observer.Looping _ -> "packets loop on"
      in
      Fmt.pr "%+8.2fs  %s %a@." (normalized r.time) tag Convergence.Observer.pp p
    | _ -> ()
  in
  let trace =
    Obs.Trace.create ~categories:[ Obs.Event.Env ] (Obs.Sink.callback narrate)
  in
  let m =
    Convergence.Engine_registry.run ~src:0 ~dst:15 ~trace cfg
      Convergence.Engine_registry.dbf
  in
  Fmt.pr "@.Packet accounting over the whole run:@.%a@.@."
    Convergence.Metrics.pp_multi m;
  Fmt.pr
    "Note how packets were only lost in stage (b): between the failure and@.\
     its detection %.1f s later (plus anything queued on the dead link).@.\
     During the rest of the convergence the sub-optimal path still delivered@.\
     every packet - the paper's central point: a longer routing convergence@.\
     does not necessarily imply higher packet loss.@."
    cfg.Convergence.Config.detection_delay
