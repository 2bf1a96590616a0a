(* Tests for the study harness building blocks: configuration validation,
   forwarding-path observation, metrics accounting, and report rendering. *)

(* ---------- Config ---------- *)

let test_default_valid () =
  match Convergence.Config.validate Convergence.Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_quick_valid () =
  match Convergence.Config.validate Convergence.Config.quick with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_default_matches_paper () =
  let c = Convergence.Config.default in
  Alcotest.(check int) "49 nodes" 49 (Convergence.Config.nodes c);
  Alcotest.(check int) "ttl 127" 127 c.Convergence.Config.ttl;
  Alcotest.(check (float 0.)) "1 Mbps" 1e6 c.Convergence.Config.bandwidth_bps;
  Alcotest.(check (float 0.)) "10 ms prop" 0.01 c.Convergence.Config.prop_delay;
  Alcotest.(check int) "queue 200" 200 c.Convergence.Config.queue_capacity;
  Alcotest.(check (float 0.)) "200 pps" 200. c.Convergence.Config.send_rate_pps;
  Alcotest.(check (float 0.)) "failure at 400" 400. c.Convergence.Config.failure_time

let test_validation_rejects () =
  let reject cfg msg =
    match Convergence.Config.validate cfg with
    | Ok () -> Alcotest.failf "expected rejection: %s" msg
    | Error _ -> ()
  in
  let c = Convergence.Config.default in
  reject { c with rows = 2 } "rows";
  reject { c with degree = 2 } "degree";
  reject { c with degree = 99 } "degree hi";
  reject { c with bandwidth_bps = 0. } "bandwidth";
  reject { c with queue_capacity = 0 } "queue";
  reject { c with ttl = 0 } "ttl";
  reject { c with send_rate_pps = 0. } "rate";
  reject { c with traffic_start = 500. } "traffic after failure";
  reject { c with sim_end = 100. } "end before failure"

let test_with_helpers () =
  let c = Convergence.Config.default in
  Alcotest.(check int) "degree" 6 (Convergence.Config.with_degree 6 c).Convergence.Config.degree;
  Alcotest.(check int) "seed" 9 (Convergence.Config.with_seed 9 c).Convergence.Config.seed

(* ---------- Observer ---------- *)

let next_hop_of_table table n = List.assoc_opt n table

let test_observer_complete () =
  let table = [ (0, Some 1); (1, Some 2) ] in
  match
    Convergence.Observer.current_path ~next_hop:(fun n ->
        Option.join (next_hop_of_table table n))
      ~src:0 ~dst:2
  with
  | Convergence.Observer.Complete [ 0; 1; 2 ] -> ()
  | r -> Alcotest.failf "unexpected %a" Convergence.Observer.pp r

let test_observer_broken () =
  let table = [ (0, Some 1); (1, None) ] in
  match
    Convergence.Observer.current_path ~next_hop:(fun n ->
        Option.join (next_hop_of_table table n))
      ~src:0 ~dst:2
  with
  | Convergence.Observer.Broken [ 0; 1 ] -> ()
  | r -> Alcotest.failf "unexpected %a" Convergence.Observer.pp r

let test_observer_looping () =
  let table = [ (0, Some 1); (1, Some 0) ] in
  match
    Convergence.Observer.current_path ~next_hop:(fun n ->
        Option.join (next_hop_of_table table n))
      ~src:0 ~dst:2
  with
  | Convergence.Observer.Looping [ 0; 1; 0 ] -> ()
  | r -> Alcotest.failf "unexpected %a" Convergence.Observer.pp r

let test_observer_src_is_dst () =
  match Convergence.Observer.current_path ~next_hop:(fun _ -> None) ~src:5 ~dst:5 with
  | Convergence.Observer.Complete [ 5 ] -> ()
  | r -> Alcotest.failf "unexpected %a" Convergence.Observer.pp r

let test_observer_equal_and_helpers () =
  let a = Convergence.Observer.Complete [ 0; 1 ] in
  let b = Convergence.Observer.Complete [ 0; 1 ] in
  let c = Convergence.Observer.Broken [ 0; 1 ] in
  Alcotest.(check bool) "equal" true (Convergence.Observer.equal a b);
  Alcotest.(check bool) "kind differs" false (Convergence.Observer.equal a c);
  Alcotest.(check bool) "equal_nodes" true
    (Convergence.Observer.equal_nodes [ 0; 1 ] [ 0; 1 ]);
  Alcotest.(check bool) "equal_nodes length" false
    (Convergence.Observer.equal_nodes [ 0; 1 ] [ 0; 1; 2 ]);
  Alcotest.(check bool) "equal_nodes element" false
    (Convergence.Observer.equal_nodes [ 0; 1 ] [ 0; 2 ]);
  Alcotest.(check bool) "complete" true (Convergence.Observer.is_complete a);
  Alcotest.(check bool) "broken not complete" false (Convergence.Observer.is_complete c);
  Alcotest.(check (option int)) "hops" (Some 1) (Convergence.Observer.hops a);
  Alcotest.(check (option int)) "hops broken" None (Convergence.Observer.hops c);
  Alcotest.(check (list int)) "nodes_of" [ 0; 1 ] (Convergence.Observer.nodes_of c)

(* ---------- Metrics ---------- *)

let series () = Dessim.Series.create ~start:0. ~width:1. ~buckets:5

let sample_flow ?(src = 0) ?(sent = 100) () =
  {
    Convergence.Metrics.f_src = src;
    f_dst = 1;
    f_sent = sent;
    f_delivered = 90;
    f_drops_no_route = 5;
    f_drops_ttl = 3;
    f_drops_queue = 0;
    f_drops_link = 2;
    f_drops_injected = 0;
    f_looped_delivered = 1;
    f_looped_dropped = 3;
    f_throughput = series ();
    f_delay = series ();
    f_fwd_convergence = 1.5;
    f_transient_paths = 2;
    f_pre_failure_path = [ 0; 1 ];
    f_final_path = [ 0; 2; 1 ];
    f_final_path_complete = true;
    f_transfer = None;
  }

let sample_multi flows =
  {
    Convergence.Metrics.m_protocol = "X";
    m_degree = 4;
    m_seed = 1;
    m_flows = flows;
    m_ctrl_messages = 10;
    m_ctrl_bytes = 1000;
    m_ctrl_lost = 0;
    m_routing_convergence = 2.5;
    m_failed_links = [ (0, 1) ];
    m_sched_events = 0;
  }

let test_metrics_accounting () =
  let f = sample_flow () in
  Alcotest.(check int) "total drops" 10 (Convergence.Metrics.flow_total_drops f);
  Alcotest.(check int) "in flight" 0 (Convergence.Metrics.flow_in_flight f);
  Alcotest.(check int) "in flight after later sends" 3
    (Convergence.Metrics.flow_in_flight (sample_flow ~sent:103 ()))

let test_metrics_pp_smoke () =
  let s =
    Fmt.str "%a" Convergence.Metrics.pp_multi
      (sample_multi [ sample_flow ~sent:103 () ])
  in
  let mentions what needle =
    Alcotest.(check bool) what true (Astring_contains.contains s needle)
  in
  mentions "protocol" "X degree=4";
  mentions "in-flight count" "in-flight=3";
  mentions "final path" "final [0 -> 2 -> 1]";
  mentions "failed link" "0-1"

(* tiny substring helper without external deps *)

(* ---------- Report ---------- *)

let test_report_scalar_table () =
  let data = [ ("RIP", [ (3, 10.); (4, 5.) ]); ("DBF", [ (3, 1.); (4, 0.) ]) ] in
  let s =
    Fmt.str "%a" (Convergence.Report.scalar_table ~title:"T" ~unit_label:"u") data
  in
  Alcotest.(check bool) "has title" true (Astring_contains.contains s "T (u)");
  Alcotest.(check bool) "has protocol" true (Astring_contains.contains s "RIP");
  Alcotest.(check bool) "has value" true (Astring_contains.contains s "10.00")

(* ---------- Loop analysis ---------- *)

(* A packet's visit list, in travel order, as the observer reports it when
   the packet is caught in a loop. *)
let cycle_of_packet nodes =
  Convergence.Loop_analysis.cycle_of_path (Convergence.Observer.Looping nodes)

let test_cycle_of_packet () =
  Alcotest.(check (option (list int))) "simple cycle" (Some [ 1; 2 ])
    (cycle_of_packet [ 0; 1; 2; 1 ]);
  Alcotest.(check (option (list int))) "3-cycle" (Some [ 1; 2; 3 ])
    (cycle_of_packet [ 0; 1; 2; 3; 1 ]);
  Alcotest.(check (option (list int))) "no cycle" None
    (cycle_of_packet [ 0; 1; 2; 3 ]);
  Alcotest.(check (option (list int))) "normalized rotation" (Some [ 2; 7; 12 ])
    (cycle_of_packet [ 5; 7; 12; 2; 7 ])

let test_cycle_of_path () =
  Alcotest.(check (option (list int))) "looping" (Some [ 1; 2 ])
    (Convergence.Loop_analysis.cycle_of_path
       (Convergence.Observer.Looping [ 0; 1; 2; 1 ]));
  Alcotest.(check (option (list int))) "complete" None
    (Convergence.Loop_analysis.cycle_of_path
       (Convergence.Observer.Complete [ 0; 1; 2 ]));
  Alcotest.(check (option (list int))) "broken" None
    (Convergence.Loop_analysis.cycle_of_path
       (Convergence.Observer.Broken [ 0; 1; 2 ]))

(* ---------- Engine registry ---------- *)

let test_registry_names () =
  let names = List.map Convergence.Engine_registry.name Convergence.Engine_registry.all in
  Alcotest.(check (list string)) "all engines"
    [ "RIP"; "DBF"; "BGP"; "BGP-3"; "BGP-pd"; "BGP-3+RFD"; "LS" ]
    names

let test_registry_find () =
  (match Convergence.Engine_registry.find "rip" with
  | Some e -> Alcotest.(check string) "case insensitive" "RIP" (Convergence.Engine_registry.name e)
  | None -> Alcotest.fail "rip not found");
  Alcotest.(check bool) "unknown" true (Convergence.Engine_registry.find "nope" = None)

let test_registry_paper_four () =
  Alcotest.(check (list string)) "paper four"
    [ "RIP"; "DBF"; "BGP"; "BGP-3" ]
    (List.map Convergence.Engine_registry.name Convergence.Engine_registry.paper_four)

(* ---------- Experiments sweeps ---------- *)

let tiny_sweep =
  Convergence.Experiments.
    { degrees = [ 3; 4 ]; runs = 2; base = Convergence.Config.quick }

let test_experiments_scale () =
  let scaled =
    Convergence.Experiments.scale ~runs:7 ~degrees:[ 5 ] tiny_sweep
  in
  Alcotest.(check int) "runs" 7 scaled.Convergence.Experiments.runs;
  Alcotest.(check (list int)) "degrees" [ 5 ] scaled.Convergence.Experiments.degrees;
  let unchanged = Convergence.Experiments.scale tiny_sweep in
  Alcotest.(check int) "default runs kept" 2 unchanged.Convergence.Experiments.runs

(* ---------- Export ---------- *)

let lines s = String.split_on_char '\n' (String.trim s)

let test_export_run_csv () =
  let csv =
    Convergence.Export.run_csv
      [ sample_multi [ sample_flow (); sample_flow ~src:3 () ] ]
  in
  match lines csv with
  | header :: rows ->
    Alcotest.(check bool) "header" true
      (Astring_contains.contains header "protocol,degree,seed");
    Alcotest.(check int) "one row per flow" 2 (List.length rows);
    Alcotest.(check (list bool)) "flow endpoints" [ true; true ]
      (List.map2 Astring_contains.contains rows [ "X,4,1,0,1,"; "X,4,1,3,1," ]);
    (* Every row has as many cells as the header. *)
    let cells ln = List.length (String.split_on_char ',' ln) in
    List.iter
      (fun r -> Alcotest.(check int) "cell count" (cells header) (cells r))
      rows
  | [] -> Alcotest.fail "empty csv"

(* The paper scenario's CSV on the quick configuration, pinned byte for
   byte: a change to the run, to the row layout or to number formatting
   shows here. *)
let test_export_quick_dbf_csv () =
  Alcotest.(check string) "csv"
    "protocol,degree,seed,src,dst,sent,delivered,drops_no_route,drops_ttl,\
     drops_queue,drops_link,looped_delivered,looped_dropped,ctrl_messages,\
     ctrl_bytes,ctrl_lost,fwd_convergence,routing_convergence,transient_paths\n\
     DBF,4,1,2,23,7501,7473,0,0,0,25,0,0,1638,706916,0,0.542144,0.542144,2\n"
    (Convergence.Export.run_csv
       [
         Convergence.Engine_registry.run Convergence.Config.quick
           Convergence.Engine_registry.dbf;
       ])

let test_export_to_file () =
  let path = Filename.temp_file "rcsim" ".csv" in
  Convergence.Export.to_file "a,b\n1,2\n" ~path;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "round trip" "a,b\n1,2\n" content

let () =
  Alcotest.run "convergence-core"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "quick valid" `Quick test_quick_valid;
          Alcotest.test_case "paper values" `Quick test_default_matches_paper;
          Alcotest.test_case "rejections" `Quick test_validation_rejects;
          Alcotest.test_case "with helpers" `Quick test_with_helpers;
        ] );
      ( "observer",
        [
          Alcotest.test_case "complete" `Quick test_observer_complete;
          Alcotest.test_case "broken" `Quick test_observer_broken;
          Alcotest.test_case "looping" `Quick test_observer_looping;
          Alcotest.test_case "src=dst" `Quick test_observer_src_is_dst;
          Alcotest.test_case "helpers" `Quick test_observer_equal_and_helpers;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "pp smoke" `Quick test_metrics_pp_smoke;
        ] );
      ( "report",
        [
          Alcotest.test_case "scalar table" `Quick test_report_scalar_table;
        ] );
      ( "loop analysis",
        [
          Alcotest.test_case "packet cycles" `Quick test_cycle_of_packet;
          Alcotest.test_case "path cycles" `Quick test_cycle_of_path;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "paper four" `Quick test_registry_paper_four;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "scale" `Quick test_experiments_scale;
        ] );
      ( "export",
        [
          Alcotest.test_case "run csv" `Quick test_export_run_csv;
          Alcotest.test_case "quick dbf csv" `Quick test_export_quick_dbf_csv;
          Alcotest.test_case "to_file" `Quick test_export_to_file;
        ] );
    ]
