(* Tests for the sliding-window reliable transport running over the simulated
   network and routing protocols: one [Transfer] flow per run. *)

let quick = Convergence.Config.quick

module E = Convergence.Engine_registry
module M = Convergence.Metrics

let run ?(engine = E.dbf) ~failures tc =
  let flow =
    {
      Convergence.Runner.default_flow with
      flow_traffic = Convergence.Runner.Transfer tc;
    }
  in
  E.run_multi ~flows:[ flow ] ~failures quick engine

(* The transfer's own outcome. *)
let transfer ?engine ~failures tc =
  match (run ?engine ~failures tc).M.m_flows with
  | [ { M.f_transfer = Some o; _ } ] -> o
  | _ -> Alcotest.fail "expected one transfer flow"

let tc ?(window = 8) ?(rto = 0.5) ?(total = 1000) () =
  { Convergence.Runner.default_transport with window; rto; total_packets = total }

let failure_on_path =
  {
    Convergence.Runner.fail_at = quick.Convergence.Config.failure_time;
    target = Convergence.Runner.Flow_path 0;
    heal_after = None;
  }

let test_lossless_transfer_completes () =
  let o = transfer ~failures:[] (tc ()) in
  Alcotest.(check int) "all packets acked" 1000 o.M.t_completed;
  Alcotest.(check int) "no retransmissions" 0 o.M.t_retransmissions;
  Alcotest.(check int) "no duplicates" 0 o.M.t_duplicates;
  Alcotest.(check bool) "finished" true (o.M.t_completed_at <> None)

let test_window_limits_rate () =
  (* With a window of 1 the transfer is one packet per RTT; with 8 it is
     roughly eight times faster. *)
  let time_with window =
    let o = transfer ~failures:[] (tc ~window ~total:200 ()) in
    match o.M.t_completed_at with
    | Some t -> t -. quick.Convergence.Config.traffic_start
    | None -> Alcotest.fail "transfer did not finish"
  in
  let t1 = time_with 1 in
  let t8 = time_with 8 in
  Alcotest.(check bool)
    (Printf.sprintf "window 8 (%.1fs) much faster than window 1 (%.1fs)" t8 t1)
    true
    (t8 < t1 /. 4.)

let test_failure_recovered_by_retransmission () =
  let o = transfer ~failures:[ failure_on_path ] (tc ~total:8000 ()) in
  Alcotest.(check int) "all packets acked" 8000 o.M.t_completed;
  Alcotest.(check bool) "retransmitted something" true
    (o.M.t_retransmissions > 0);
  Alcotest.(check bool) "finished despite failure" true
    (o.M.t_completed_at <> None)

let test_failure_recorded_in_multi () =
  let m = run ~failures:[ failure_on_path ] (tc ()) in
  Alcotest.(check int) "one failed link" 1 (List.length m.M.m_failed_links)

let test_goodput_accounts_everything () =
  let o = transfer ~failures:[] (tc ~total:500 ()) in
  let g = o.M.t_goodput in
  let total = ref 0 in
  for i = 0 to Dessim.Series.buckets g - 1 do
    total := !total + Dessim.Series.count g i
  done;
  Alcotest.(check int) "goodput sums to transfer size" 500 !total

let test_unlimited_transfer_saturates () =
  let o = transfer ~failures:[] (tc ~total:0 ()) in
  Alcotest.(check bool) "never 'finishes'" true
    (o.M.t_completed_at = None);
  Alcotest.(check bool) "moves a lot of data" true
    (o.M.t_completed > 1000)

let test_bad_transport_config_rejected () =
  let bad_window = { (tc ()) with Convergence.Runner.window = 0 } in
  (match transfer ~failures:[] bad_window with
  | (_ : M.transfer) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ());
  let bad_rto = { (tc ()) with Convergence.Runner.rto = 0. } in
  match transfer ~failures:[] bad_rto with
  | (_ : M.transfer) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_transport_determinism () =
  let key (o : M.transfer) =
    ( o.M.t_completed,
      o.M.t_retransmissions,
      o.M.t_completed_at )
  in
  let a = transfer ~failures:[ failure_on_path ] (tc ~total:3000 ()) in
  let b = transfer ~failures:[ failure_on_path ] (tc ~total:3000 ()) in
  Alcotest.(check bool) "same outcome" true (key a = key b)

let test_rip_stalls_longer_than_dbf () =
  (* The transfer crosses the failure; RIP's long switch-over turns into a
     long goodput stall and hence a later completion. *)
  let finish engine =
    let o =
      transfer ~engine ~failures:[ failure_on_path ] (tc ~total:8000 ~rto:0.5 ())
    in
    match o.M.t_completed_at with
    | Some t -> t
    | None -> quick.Convergence.Config.sim_end
  in
  let rip = finish Convergence.Engine_registry.rip in
  let dbf_t = finish Convergence.Engine_registry.dbf in
  Alcotest.(check bool)
    (Printf.sprintf "rip (%.1f) finishes after dbf (%.1f)" rip dbf_t)
    true (rip > dbf_t)

let test_transport_study_shape () =
  (* One DBF cell of the ext-transport campaign section: a go-back-N
     transfer crossing the failure. *)
  let cell =
    match Campaign.Sections.find "ext-transport" with
    | None -> Alcotest.fail "no ext-transport section"
    | Some section ->
      let sweep = Convergence.Experiments.{ degrees = [ 4 ]; runs = 1; base = quick } in
      let task =
        List.find
          (fun t -> t.Campaign.Sections.t_protocol = "DBF")
          (Array.to_list (section.Campaign.Sections.tasks sweep))
      in
      task.Campaign.Sections.t_run ()
  in
  Alcotest.(check int) "degree" 4 cell.Campaign.Cell_result.degree;
  match List.assoc_opt "completion_s" cell.Campaign.Cell_result.extras with
  | Some completion ->
    Alcotest.(check bool) "completion positive" true (completion > 0.)
  | None -> Alcotest.fail "no completion_s extra"

let () =
  Alcotest.run "transport"
    [
      ( "mechanics",
        [
          Alcotest.test_case "lossless transfer" `Quick test_lossless_transfer_completes;
          Alcotest.test_case "window limits rate" `Quick test_window_limits_rate;
          Alcotest.test_case "goodput accounting" `Quick test_goodput_accounts_everything;
          Alcotest.test_case "unlimited saturates" `Quick test_unlimited_transfer_saturates;
          Alcotest.test_case "bad config" `Quick test_bad_transport_config_rejected;
          Alcotest.test_case "determinism" `Quick test_transport_determinism;
        ] );
      ( "across failures",
        [
          Alcotest.test_case "recovers by retransmission" `Quick
            test_failure_recovered_by_retransmission;
          Alcotest.test_case "failure recorded" `Quick test_failure_recorded_in_multi;
          Alcotest.test_case "rip stalls longer" `Quick test_rip_stalls_longer_than_dbf;
          Alcotest.test_case "study shape" `Quick test_transport_study_shape;
        ] );
    ]
