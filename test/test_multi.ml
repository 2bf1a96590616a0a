(* Tests for the multi-flow / multi-failure generalization (the paper's
   Section 6 future work). *)

let quick = Convergence.Config.quick

module R = Convergence.Runner.Make (Protocols.Dbf)

let dbf = Protocols.Dbf.default_config

let flows n = List.init n (fun _ -> Convergence.Runner.default_flow)

let one_failure ?(at = quick.Convergence.Config.failure_time) ?(flow = 0) () =
  { Convergence.Runner.fail_at = at; target = Convergence.Runner.Flow_path flow; heal_after = None }

let test_three_flows_all_deliver () =
  let m = R.run_multi ~flows:(flows 3) ~failures:[ one_failure () ] quick dbf in
  Alcotest.(check int) "three flows" 3 (List.length m.Convergence.Metrics.m_flows);
  List.iter
    (fun f ->
      Alcotest.(check bool) "sent packets" true (f.Convergence.Metrics.f_sent > 0);
      let ratio = Convergence.Metrics.flow_delivery_ratio f in
      if ratio < 0.9 then
        Alcotest.failf "flow %d->%d delivered only %.1f%%"
          f.Convergence.Metrics.f_src f.Convergence.Metrics.f_dst (100. *. ratio))
    m.Convergence.Metrics.m_flows

let test_flow_conservation () =
  let m = R.run_multi ~flows:(flows 4) ~failures:[ one_failure () ] quick dbf in
  List.iter
    (fun f ->
      let accounted =
        f.Convergence.Metrics.f_delivered + Convergence.Metrics.flow_total_drops f
      in
      let residue = f.Convergence.Metrics.f_sent - accounted in
      if residue < 0 then Alcotest.failf "negative in-flight %d" residue;
      if residue > 10 then Alcotest.failf "%d packets unaccounted" residue)
    m.Convergence.Metrics.m_flows

let test_two_overlapping_failures () =
  let failures =
    [ one_failure ~flow:0 (); one_failure ~at:(quick.Convergence.Config.failure_time +. 5.) ~flow:1 () ]
  in
  let m = R.run_multi ~flows:(flows 2) ~failures quick dbf in
  Alcotest.(check int) "two failed links" 2
    (List.length m.Convergence.Metrics.m_failed_links);
  (* Distinct links must have failed. *)
  (match m.Convergence.Metrics.m_failed_links with
  | [ a; b ] -> Alcotest.(check bool) "distinct" true (a <> b)
  | _ -> Alcotest.fail "expected two links");
  (* A 5x5 degree-4 mesh minus two links is still connected with very high
     probability; both flows must end with a working path. *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "final path works" true
        f.Convergence.Metrics.f_final_path_complete)
    m.Convergence.Metrics.m_flows

let test_pinned_and_random_failures () =
  let failures =
    [
      { Convergence.Runner.fail_at = quick.Convergence.Config.failure_time;
        target = Convergence.Runner.Link (0, 1);
        heal_after = None };
      { Convergence.Runner.fail_at = quick.Convergence.Config.failure_time +. 10.;
        target = Convergence.Runner.Random_link;
        heal_after = None };
    ]
  in
  let m = R.run_multi ~flows:(flows 1) ~failures quick dbf in
  match m.Convergence.Metrics.m_failed_links with
  | [ (0, 1); other ] -> Alcotest.(check bool) "other link" true (other <> (0, 1))
  | l -> Alcotest.failf "unexpected failed links (%d)" (List.length l)

(* One link failed twice: at t (healed 2 s later) and at t + 1 s (never
   healed). The link is held down by the second failure when the first heals,
   so it must stay down to the end: failed and reported once, absent from the
   surviving topology, and routed around by every router. *)
let test_same_link_failed_twice engine () =
  let cfg = { quick with rows = 4; cols = 4; sim_end = 700. } in
  let t = cfg.Convergence.Config.failure_time in
  let link = Convergence.Runner.Link (0, 1) in
  let failures =
    [
      { Convergence.Runner.fail_at = t; target = link; heal_after = Some 2. };
      { Convergence.Runner.fail_at = t +. 1.; target = link; heal_after = None };
    ]
  in
  let flow =
    { Convergence.Runner.default_flow with flow_src = Some 0; flow_dst = Some 15 }
  in
  let max_metric =
    match Convergence.Engine_registry.name engine with
    | "RIP" | "DBF" ->
      Some Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric
    | _ -> None
  in
  let up = ref true and mismatches = ref [] in
  let m =
    Convergence.Engine_registry.run_multi
      ~on_quiesce:(fun view ->
        up := Netsim.Topology.has_edge view.Convergence.Runner.rv_topology 0 1;
        mismatches := Check.Oracle.check ?max_metric view)
      ~flows:[ flow ] ~failures cfg engine
  in
  Alcotest.(check bool) "link still down at the end" false !up;
  Alcotest.(check (list (pair int int))) "failed once" [ (0, 1) ]
    m.Convergence.Metrics.m_failed_links;
  Alcotest.(check int) "oracle mismatches" 0 (List.length !mismatches)

let test_nonexistent_pinned_link_rejected () =
  let failures =
    [
      { Convergence.Runner.fail_at = quick.Convergence.Config.failure_time;
        target = Convergence.Runner.Link (0, 24);
        heal_after = None };
    ]
  in
  (* The failure fires mid-simulation, so the error surfaces then. *)
  match R.run_multi ~flows:(flows 1) ~failures quick dbf with
  | (_ : Convergence.Metrics.multi) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_flow_rate_and_start_respected () =
  let flow_fast =
    {
      Convergence.Runner.default_flow with
      flow_traffic = Convergence.Runner.Cbr (Some 100.);
    }
  in
  let flow_late =
    {
      Convergence.Runner.default_flow with
      flow_traffic = Convergence.Runner.Cbr (Some 50.);
      flow_start = Some (quick.Convergence.Config.traffic_start +. 50.);
    }
  in
  let m = R.run_multi ~flows:[ flow_fast; flow_late ] ~failures:[] quick dbf in
  match m.Convergence.Metrics.m_flows with
  | [ fast; late ] ->
    let duration = quick.Convergence.Config.sim_end -. quick.Convergence.Config.traffic_start in
    Alcotest.(check bool) "fast flow ~100 pps" true
      (abs_float (float_of_int fast.Convergence.Metrics.f_sent -. (100. *. duration)) < 3.);
    Alcotest.(check bool) "late flow sent less" true
      (late.Convergence.Metrics.f_sent < fast.Convergence.Metrics.f_sent / 2)
  | _ -> Alcotest.fail "expected two flows"

let test_no_failures_means_no_convergence_metrics () =
  let m = R.run_multi ~flows:(flows 2) ~failures:[] quick dbf in
  Alcotest.(check (float 0.)) "routing conv 0" 0.
    m.Convergence.Metrics.m_routing_convergence;
  List.iter
    (fun f ->
      Alcotest.(check (float 0.)) "fwd conv 0" 0. f.Convergence.Metrics.f_fwd_convergence;
      Alcotest.(check int) "no drops" 0 (Convergence.Metrics.flow_total_drops f))
    m.Convergence.Metrics.m_flows

let test_pinned_flow_endpoints () =
  let flow =
    { Convergence.Runner.default_flow with flow_src = Some 2; flow_dst = Some 22 }
  in
  let m = R.run_multi ~flows:[ flow ] ~failures:[ one_failure () ] quick dbf in
  match m.Convergence.Metrics.m_flows with
  | [ f ] ->
    Alcotest.(check int) "src" 2 f.Convergence.Metrics.f_src;
    Alcotest.(check int) "dst" 22 f.Convergence.Metrics.f_dst
  | _ -> Alcotest.fail "one flow expected"

let test_empty_flows_rejected () =
  match R.run_multi ~flows:[] ~failures:[] quick dbf with
  | (_ : Convergence.Metrics.multi) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_failure_flow_index_validated () =
  let failures = [ one_failure ~flow:7 () ] in
  match R.run_multi ~flows:(flows 2) ~failures quick dbf with
  | (_ : Convergence.Metrics.multi) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_multi_determinism () =
  let failures =
    [ one_failure ~flow:0 (); one_failure ~at:(quick.Convergence.Config.failure_time +. 3.) ~flow:1 () ]
  in
  let key (m : Convergence.Metrics.multi) =
    ( Convergence.Metrics.multi_sent m,
      Convergence.Metrics.multi_delivered m,
      m.Convergence.Metrics.m_failed_links,
      m.Convergence.Metrics.m_routing_convergence )
  in
  let a = R.run_multi ~flows:(flows 2) ~failures quick dbf in
  let b = R.run_multi ~flows:(flows 2) ~failures quick dbf in
  Alcotest.(check bool) "same outcome" true (key a = key b)

let test_pp_multi_smoke () =
  let m = R.run_multi ~flows:(flows 2) ~failures:[ one_failure () ] quick dbf in
  let s = Fmt.str "%a" Convergence.Metrics.pp_multi m in
  Alcotest.(check bool) "mentions flows" true (Astring_contains.contains s "2 flows");
  Alcotest.(check bool) "mentions protocol" true (Astring_contains.contains s "DBF")

let test_multi_failure_study_shape () =
  (* One DBF cell of the ext-multiflow campaign section: four flows, two
     overlapping failures. *)
  let cell =
    match Campaign.Sections.find "ext-multiflow" with
    | None -> Alcotest.fail "no ext-multiflow section"
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
  match List.assoc_opt "delivery_ratio" cell.Campaign.Cell_result.extras with
  | Some ratio ->
    Alcotest.(check bool) "delivery sane" true (ratio > 0.5 && ratio <= 1.)
  | None -> Alcotest.fail "no delivery_ratio extra"

let test_rip_multi_failures_hurt_more_than_dbf () =
  (* Under two overlapping failures, RIP's delivery deficit dwarfs DBF's. *)
  let failures cfg =
    [
      { Convergence.Runner.fail_at = cfg.Convergence.Config.failure_time;
        target = Convergence.Runner.Flow_path 0; heal_after = None };
      { Convergence.Runner.fail_at = cfg.Convergence.Config.failure_time +. 5.;
        target = Convergence.Runner.Flow_path 1; heal_after = None };
    ]
  in
  let deliver engine =
    let m =
      Convergence.Engine_registry.run_multi ~flows:(flows 2)
        ~failures:(failures quick) quick engine
    in
    float_of_int (Convergence.Metrics.multi_delivered m)
    /. float_of_int (Convergence.Metrics.multi_sent m)
  in
  let rip = deliver Convergence.Engine_registry.rip in
  let dbf = deliver Convergence.Engine_registry.dbf in
  Alcotest.(check bool)
    (Printf.sprintf "dbf (%.3f) beats rip (%.3f)" dbf rip)
    true (dbf > rip)

let () =
  Alcotest.run "multi"
    [
      ( "flows",
        [
          Alcotest.test_case "three flows deliver" `Quick test_three_flows_all_deliver;
          Alcotest.test_case "conservation" `Quick test_flow_conservation;
          Alcotest.test_case "rate/start respected" `Quick test_flow_rate_and_start_respected;
          Alcotest.test_case "pinned endpoints" `Quick test_pinned_flow_endpoints;
          Alcotest.test_case "empty rejected" `Quick test_empty_flows_rejected;
        ] );
      ( "failures",
        [
          Alcotest.test_case "overlapping" `Quick test_two_overlapping_failures;
          Alcotest.test_case "pinned and random" `Quick test_pinned_and_random_failures;
          Alcotest.test_case "same link twice (RIP)" `Quick
            (test_same_link_failed_twice Convergence.Engine_registry.rip);
          Alcotest.test_case "same link twice (DBF)" `Quick
            (test_same_link_failed_twice Convergence.Engine_registry.dbf);
          Alcotest.test_case "same link twice (BGP)" `Quick
            (test_same_link_failed_twice Convergence.Engine_registry.bgp);
          Alcotest.test_case "same link twice (BGP-3)" `Quick
            (test_same_link_failed_twice Convergence.Engine_registry.bgp3);
          Alcotest.test_case "nonexistent link" `Quick test_nonexistent_pinned_link_rejected;
          Alcotest.test_case "bad flow index" `Quick test_failure_flow_index_validated;
          Alcotest.test_case "no failures" `Quick test_no_failures_means_no_convergence_metrics;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "determinism" `Quick test_multi_determinism;
          Alcotest.test_case "pp smoke" `Quick test_pp_multi_smoke;
          Alcotest.test_case "study shape" `Quick test_multi_failure_study_shape;
          Alcotest.test_case "rip hurts more" `Quick test_rip_multi_failures_hurt_more_than_dbf;
        ] );
    ]
