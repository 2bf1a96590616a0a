(* Link flap: a failure followed by recovery.

   The paper studies a single permanent failure; real links often come back.
   This example fails a link on the flow's path and restores it 40 s later,
   showing both convergence episodes (away from the link, then back onto it)
   in the throughput series for DBF and for RIP. DBF handles both edges with
   barely a blip; RIP pays its periodic-update price twice... except on
   recovery, where the link-up triggers an immediate full-table exchange, so
   the second episode is loss-free for both (routes only get better).

     dune exec examples/link_flap.exe *)

let run_engine name (engine : Convergence.Engine_registry.t) =
  let cfg = { Convergence.Config.quick with send_rate_pps = 100. } in
  let restore_after = 40. in
  let r = Convergence.Engine_registry.run ~restore_after cfg engine in
  Fmt.pr "@.%s, link restored %.0f s after the failure:@." name restore_after;
  Fmt.pr "  drops: no-route %d, link %d; final path %a@."
    r.Convergence.Metrics.drops_no_route r.Convergence.Metrics.drops_link
    Netsim.Types.pp_path r.Convergence.Metrics.final_path;
  let tput = r.Convergence.Metrics.throughput in
  let failure_bucket = 10 in
  Fmt.pr "  throughput around the failure (t normalized to warmup end):@.";
  for i = failure_bucket - 2 to failure_bucket + 45 do
    if i >= 0 && i < Dessim.Series.buckets tput && i mod 4 = 0 then
      Fmt.pr "    t=%3d s  %6.1f pkt/s@." i (Dessim.Series.rate tput i)
  done

let () =
  run_engine "DBF" Convergence.Engine_registry.dbf;
  run_engine "RIP" Convergence.Engine_registry.rip
