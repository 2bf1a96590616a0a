(* End-to-end file transfer across a routing convergence event (the paper's
   future-work direction: "extending the packet delivery performance measure
   from IP layer to include end-to-end TCP performance").

   A sliding-window transfer (the FTP-like workload of the paper's reference
   [25]) crosses the mesh while a link on its path fails. Packets lost during
   the switch-over are recovered by timeout retransmission, so the routing
   protocol's convergence behavior shows up as (a) a goodput stall and (b) a
   later completion time.

     dune exec examples/file_transfer.exe *)

let cfg = Convergence.Config.quick

let transfer =
  {
    Convergence.Runner.default_flow with
    flow_traffic =
      Convergence.Runner.Transfer
        {
          Convergence.Runner.default_transport with
          window = 16;
          rto = 0.5;
          total_packets = 8000;
        };
  }

let failure =
  {
    Convergence.Runner.fail_at = cfg.Convergence.Config.failure_time;
    target = Convergence.Runner.Flow_path 0;
    heal_after = None;
  }

let show engine =
  let name = Convergence.Engine_registry.name engine in
  let m =
    Convergence.Engine_registry.run_multi ~flows:[ transfer ]
      ~failures:[ failure ] cfg engine
  in
  let o =
    match m.Convergence.Metrics.m_flows with
    | [ { Convergence.Metrics.f_transfer = Some o; _ } ] -> o
    | _ -> assert false
  in
  let finish =
    match o.Convergence.Metrics.t_completed_at with
    | Some t -> Printf.sprintf "%.1f s" (t -. cfg.Convergence.Config.traffic_start)
    | None -> "did not finish"
  in
  Fmt.pr "%-6s completion: %-14s retransmissions: %3d@." name finish
    o.Convergence.Metrics.t_retransmissions;
  (* Render the goodput dip around the failure. *)
  let g = o.Convergence.Metrics.t_goodput in
  let failure_bucket =
    match
      Dessim.Series.bucket_of_time g cfg.Convergence.Config.failure_time
    with
    | Some b -> b
    | None -> 0
  in
  Fmt.pr "       goodput around the failure:";
  for i = failure_bucket - 2 to failure_bucket + 24 do
    if i >= 0 && i < Dessim.Series.buckets g && (i - failure_bucket) mod 3 = 0
    then Fmt.pr " %d" (Dessim.Series.count g i)
  done;
  Fmt.pr " pkt/s (3 s apart)@."

let () =
  Fmt.pr
    "8000-packet transfer, window 16, RTO 0.5 s; one link failure on the@.\
     transfer's path. Completion measured from transfer start.@.@.";
  List.iter show Convergence.Engine_registry.paper_four
