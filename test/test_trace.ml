(* Tests for the obs library (events, sinks, registry, trace filtering,
   replay) and the trace-conservation property: the packet totals
   reconstructed from a run's event stream must equal, bit for bit, what the
   runner's own accounting reports. *)

let quick = Convergence.Config.quick

(* ---------- event serialization ---------- *)

(* One sample per constructor, so a missing round-trip case fails loudly. *)
let sample_events =
  [
    Obs.Event.Packet_sent { flow = 0; pkt = 1; src = 2; dst = 3 };
    Obs.Event.Packet_forwarded { pkt = 1; node = 2; next_hop = 4; ttl = 63 };
    Obs.Event.Packet_delivered { flow = 0; pkt = 1; delay = 0.125; looped = false };
    Obs.Event.Packet_dropped
      { flow = 0; pkt = 2; reason = Netsim.Types.No_route; looped = true };
    Obs.Event.Loop_enter { flow = 1; cycle = [ 4; 5; 6 ] };
    Obs.Event.Loop_exit { flow = 1; cycle = [ 4; 5; 6 ]; duration = 2.5 };
    Obs.Event.Ctrl_sent
      { proto = "DBF"; src = 0; dst = 1; kind = Obs.Event.Mixed; bits = 416 };
    Obs.Event.Ctrl_received
      { proto = "BGP"; src = 1; dst = 0; kind = Obs.Event.Withdrawal };
    Obs.Event.Ctrl_lost { reason = Netsim.Types.Link_down };
    Obs.Event.Timer_fired { node = 7 };
    Obs.Event.Mrai_defer { node = 7; neighbor = 8; dsts = 3 };
    Obs.Event.Link_failed { u = 5; v = 9 };
    Obs.Event.Link_healed { u = 5; v = 9 };
    Obs.Event.Route_changed { node = 3; dst = 13 };
    Obs.Event.Frr_installed { node = 3; dst = 13; backup = 5 };
    Obs.Event.Frr_activated { node = 3; neighbor = 5 };
    Obs.Event.Frr_forwarded { pkt = 1; node = 3; next_hop = 5; ttl = 62 };
    Obs.Event.Frr_exhausted { pkt = 1; node = 3 };
    Obs.Event.Path_changed
      { flow = 0; kind = Obs.Event.Path_looping; path = [ 3; 7; 6; 7 ] };
    Obs.Event.Sched_stats { events = 1000; max_queue = 50; cpu_s = 0.25 };
  ]

let test_json_roundtrip () =
  List.iteri
    (fun i event ->
      let r = { Obs.Sink.time = 1.5 +. float_of_int i; seq = i; event } in
      let line = Obs.Json.to_string (Obs.Sink.record_to_json r) in
      match Obs.Sink.record_of_json (Obs.Json.of_string line) with
      | None -> Alcotest.failf "unparseable: %s" line
      | Some r' ->
        if r' <> r then Alcotest.failf "round trip changed: %s" line)
    sample_events

let test_event_names_distinct () =
  let names = List.map Obs.Event.name sample_events in
  let distinct = List.sort_uniq compare names in
  Alcotest.(check int) "all names distinct" (List.length names)
    (List.length distinct)

(* ---------- sinks ---------- *)

let record i =
  { Obs.Sink.time = float_of_int i; seq = i; event = Obs.Event.Timer_fired { node = i } }

let test_memory_sink () =
  let sink, got = Obs.Sink.memory () in
  for i = 0 to 4 do
    sink.Obs.Sink.emit (record i)
  done;
  Alcotest.(check (list int)) "all, in order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun r -> r.Obs.Sink.seq) (got ()))

let test_ring_sink () =
  let sink, got = Obs.Sink.ring ~capacity:3 in
  for i = 0 to 9 do
    sink.Obs.Sink.emit (record i)
  done;
  Alcotest.(check (list int)) "last 3, in order" [ 7; 8; 9 ]
    (List.map (fun r -> r.Obs.Sink.seq) (got ()));
  (match Obs.Sink.ring ~capacity:0 with
  | (_ : Obs.Sink.t * (unit -> Obs.Sink.record list)) ->
    Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ())

let test_csv_writer_header () =
  let lines = ref [] in
  let sink = Obs.Sink.csv_writer (fun l -> lines := l :: !lines) in
  sink.Obs.Sink.emit (record 0);
  match List.rev !lines with
  | header :: _ :: _ ->
    Alcotest.(check string) "header first" Obs.Sink.csv_header header
  | _ -> Alcotest.fail "expected header plus one row"

let test_format_of_path () =
  Alcotest.(check bool) "jsonl" true
    (Obs.Sink.format_of_path "a/b/trace.jsonl" = Obs.Sink.Jsonl);
  Alcotest.(check bool) "csv" true
    (Obs.Sink.format_of_path "trace.csv" = Obs.Sink.Csv);
  Alcotest.(check bool) "text default" true
    (Obs.Sink.format_of_path "trace.log" = Obs.Sink.Text)

(* ---------- registry ---------- *)

let test_registry_counters_gauges () =
  let m = Obs.Registry.create () in
  let c = Obs.Registry.counter m "a.count" in
  Obs.Registry.incr c;
  Obs.Registry.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Registry.counter_value c);
  let g = Obs.Registry.gauge m "a.gauge" in
  Obs.Registry.set g 2.;
  Obs.Registry.set_max g 1.;
  Obs.Registry.set_max g 7.;
  Alcotest.(check (float 0.)) "gauge high-water" 7. (Obs.Registry.gauge_value g);
  (* Same name, same kind: the same handle. *)
  Obs.Registry.incr (Obs.Registry.counter m "a.count");
  Alcotest.(check int) "shared handle" 6 (Obs.Registry.counter_value c);
  (* Same name, different kind: rejected. *)
  (match Obs.Registry.gauge m "a.count" with
  | (_ : Obs.Registry.gauge) -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list string)) "registration order" [ "a.count"; "a.gauge" ]
    (Obs.Registry.names m)

let test_registry_histogram () =
  let m = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~bounds:[| 1.; 10.; 100. |] m "h" in
  List.iter (Obs.Registry.observe h) [ 0.5; 0.7; 5.; 50.; 500. ];
  Alcotest.(check int) "n" 5 (Obs.Registry.observations h);
  Alcotest.(check (float 1e-9)) "mean" 111.24 (Obs.Registry.mean h);
  (* p50 falls in the second bucket: upper edge 10. *)
  Alcotest.(check (float 1e-9)) "p50 bound" 10. (Obs.Registry.quantile h 0.5);
  (* The top quantile lands in the overflow bucket: the observed max. *)
  Alcotest.(check (float 1e-9)) "p99 overflow" 500. (Obs.Registry.quantile h 0.99)

(* ---------- trace filtering ---------- *)

let test_trace_filters () =
  let sink, got = Obs.Sink.memory () in
  let t =
    Obs.Trace.create ~categories:[ Obs.Event.Data ]
      ~min_severity:Obs.Event.Info sink
  in
  Alcotest.(check bool) "data on" true (Obs.Trace.on t Obs.Event.Data);
  Alcotest.(check bool) "control off" false (Obs.Trace.on t Obs.Event.Control);
  (* Wrong category: dropped. *)
  Obs.Trace.emit t ~time:0. (Obs.Event.Timer_fired { node = 0 });
  (* Right category, below min severity (forwarded is Debug): dropped. *)
  Obs.Trace.emit t ~time:0.
    (Obs.Event.Packet_forwarded { pkt = 0; node = 0; next_hop = 1; ttl = 9 });
  (* Right category and severity: kept. *)
  Obs.Trace.emit t ~time:1.
    (Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 1 });
  Alcotest.(check int) "one record" 1 (List.length (got ()));
  Alcotest.(check bool) "null disabled" false (Obs.Trace.enabled Obs.Trace.null)

let test_trace_seq_numbers () =
  let sink, got = Obs.Sink.memory () in
  let t = Obs.Trace.create sink in
  for i = 0 to 3 do
    Obs.Trace.emit t ~time:0. (Obs.Event.Timer_fired { node = i })
  done;
  Alcotest.(check (list int)) "seq 0..3" [ 0; 1; 2; 3 ]
    (List.map (fun r -> r.Obs.Sink.seq) (got ()))

(* ---------- replay ---------- *)

let test_replay_tolerates_garbage () =
  let lines =
    [
      {|{"ts":1.0,"seq":0,"ev":"packet_sent","flow":0,"pkt":0,"src":1,"dst":2}|};
      "not json at all";
      {|{"ts":2.0,"seq":1,"ev":"packet_delivered","flow":0,"pkt":0,"delay":0.1,"looped":false}|};
      "";
      {|{"ts":3.0,"seq":2,"ev":"some_future_event","x":1}|};
    ]
  in
  let records, stats = Obs.Replay.of_lines lines in
  Alcotest.(check int) "parsed" 2 stats.Obs.Replay.parsed;
  Alcotest.(check int) "skipped" 1 stats.Obs.Replay.skipped;
  (* the record-shaped future-event line is preserved as opaque, not lost *)
  Alcotest.(check int) "opaque" 1 stats.Obs.Replay.opaque;
  let t = Obs.Replay.totals records in
  Alcotest.(check int) "sent" 1 t.Obs.Replay.sent;
  Alcotest.(check int) "delivered" 1 t.Obs.Replay.delivered;
  Alcotest.(check int) "in flight" 0 (Obs.Replay.in_flight t)

let test_trace_tee () =
  (* tee broadcasts; each child keeps its own filters and sequence numbers. *)
  let s1, get1 = Obs.Sink.memory () in
  let s2, get2 = Obs.Sink.memory () in
  let all = Obs.Trace.create s1 in
  let warnings = Obs.Trace.create ~min_severity:Obs.Event.Warn s2 in
  let t = Obs.Trace.tee [ all; warnings ] in
  Alcotest.(check bool) "tee enabled" true (Obs.Trace.enabled t);
  Obs.Trace.emit t ~time:1.0
    (Obs.Event.Packet_sent { flow = 0; pkt = 0; src = 0; dst = 1 });
  Obs.Trace.emit t ~time:2.0 (Obs.Event.Link_failed { u = 0; v = 1 });
  Alcotest.(check int) "unfiltered child sees both" 2 (List.length (get1 ()));
  (match get2 () with
  | [ { Obs.Sink.seq = 0; event = Obs.Event.Link_failed _; _ } ] -> ()
  | rs ->
    Alcotest.failf "warn child: expected just the failure with seq 0, got %d"
      (List.length rs));
  Alcotest.(check bool) "tee [] is disabled" false
    (Obs.Trace.enabled (Obs.Trace.tee []))

let test_replay_truncated_line () =
  (* A line cut mid-write (process killed, partial flush) must be counted and
     skipped, never raise. *)
  let whole =
    {|{"ts":1.0,"seq":0,"ev":"packet_sent","flow":0,"pkt":0,"src":1,"dst":2}|}
  in
  let lines =
    [
      whole;
      String.sub whole 0 40;  (* truncated inside a field *)
      String.sub whole 0 (String.length whole - 1);  (* missing final brace *)
      {|{"ts":2.0,"seq":1,"ev":"packet_delivered","flow":0,"pkt":0,"delay":0.1,"looped":false}|};
    ]
  in
  let records, stats = Obs.Replay.of_lines lines in
  Alcotest.(check int) "parsed" 2 stats.Obs.Replay.parsed;
  Alcotest.(check int) "skipped" 2 stats.Obs.Replay.skipped;
  Alcotest.(check int) "records" 2 (List.length records)

let test_replay_bad_escape () =
  let lines =
    [
      {|{"ts":1.0,"seq":0,"ev":"packet_sent","flow":0,"pkt":0,"src":1,"dst":2}|};
      {|{"ts":1.5,"seq":1,"ev":"link_failed","u":1,"v":"\uZZZZ"}|};  (* bad \u *)
      {|{"ts":1.6,"seq":2,"ev":"link_failed","u":1,"v":"\u00|};  (* cut escape *)
      {|{"ts":2.0,"seq":3,"ev":"link_healed","u":1,"v":2}|};
    ]
  in
  let records, stats = Obs.Replay.of_lines lines in
  Alcotest.(check int) "parsed" 2 stats.Obs.Replay.parsed;
  Alcotest.(check int) "skipped" 2 stats.Obs.Replay.skipped;
  Alcotest.(check int) "records" 2 (List.length records)

let test_json_opt_never_raises () =
  List.iter
    (fun s ->
      match Obs.Json.of_string_opt s with
      | Some _ | None -> ())
    [
      "";
      "{";
      "[1,2";
      "\"unterminated";
      "\"bad \\u12";
      "\"bad \\uXYZW\"";
      "{\"a\":}";
      "nul";
      "12e";
      "{\"a\":1}garbage";
    ]

let test_replay_loop_report () =
  let mk time seq event = { Obs.Sink.time; seq; event } in
  let records =
    [
      mk 1. 0 (Obs.Event.Loop_enter { flow = 0; cycle = [ 1; 2 ] });
      mk 2. 1 (Obs.Event.Loop_exit { flow = 0; cycle = [ 1; 2 ]; duration = 1. });
      mk 3. 2 (Obs.Event.Loop_enter { flow = 1; cycle = [ 4; 5; 6 ] });
      (* flow 1 never exits: unresolved at end of trace *)
    ]
  in
  match Obs.Replay.loop_report records with
  | [ a; b ] ->
    Alcotest.(check int) "flow" 0 a.Obs.Replay.le_flow;
    Alcotest.(check (option (float 1e-9))) "duration" (Some 1.)
      (Obs.Replay.episode_duration a);
    Alcotest.(check bool) "unresolved" true (b.Obs.Replay.le_ended = None)
  | l -> Alcotest.failf "expected 2 episodes, got %d" (List.length l)

let test_replay_frr_report () =
  let mk time seq event = { Obs.Sink.time; seq; event } in
  let records =
    [
      mk 0.5 0 (Obs.Event.Frr_installed { node = 2; dst = 7; backup = 3 });
      (* node 2 detects its link to 1 down and saves two packets, one of
         them over two backup hops *)
      mk 1.0 1 (Obs.Event.Frr_activated { node = 2; neighbor = 1 });
      mk 1.1 2 (Obs.Event.Frr_forwarded { pkt = 10; node = 2; next_hop = 3; ttl = 9 });
      mk 1.2 3 (Obs.Event.Frr_forwarded { pkt = 10; node = 2; next_hop = 3; ttl = 8 });
      mk 1.3 4 (Obs.Event.Frr_forwarded { pkt = 11; node = 2; next_hop = 3; ttl = 9 });
      mk 2.0 5 (Obs.Event.Link_healed { u = 1; v = 2 });
      (* a graceful-degradation forward outside any detection window *)
      mk 3.0 6 (Obs.Event.Frr_forwarded { pkt = 12; node = 5; next_hop = 6; ttl = 9 });
      (* two exhaustion bursts, 0.4 s apart inside, 5 s between *)
      mk 4.0 7 (Obs.Event.Frr_exhausted { pkt = 13; node = 4 });
      mk 4.4 8 (Obs.Event.Frr_exhausted { pkt = 14; node = 4 });
      mk 9.4 9 (Obs.Event.Frr_exhausted { pkt = 15; node = 4 });
    ]
  in
  let s = Obs.Replay.frr_report records in
  Alcotest.(check int) "installs" 1 s.Obs.Replay.fr_installs;
  Alcotest.(check int) "activations" 1 s.Obs.Replay.fr_activations;
  Alcotest.(check int) "forwards" 4 s.Obs.Replay.fr_forwards;
  Alcotest.(check int) "exhausted" 3 s.Obs.Replay.fr_exhausted;
  (match s.Obs.Replay.fr_episodes with
  | [ e ] ->
    Alcotest.(check int) "episode node" 2 e.Obs.Replay.fe_node;
    Alcotest.(check (float 1e-9)) "episode start" 1.0 e.Obs.Replay.fe_started;
    Alcotest.(check (option (float 1e-9))) "episode end" (Some 2.0)
      e.Obs.Replay.fe_ended;
    Alcotest.(check int) "backup hops" 3 e.Obs.Replay.fe_forwards;
    Alcotest.(check int) "packets saved" 2 e.Obs.Replay.fe_packets
  | l -> Alcotest.failf "expected 1 episode, got %d" (List.length l));
  match s.Obs.Replay.fr_exhausted_windows with
  | [ w1; w2 ] ->
    Alcotest.(check int) "first burst" 2 w1.Obs.Replay.fw_count;
    Alcotest.(check (float 1e-9)) "first burst span" 0.4
      (w1.Obs.Replay.fw_ended -. w1.Obs.Replay.fw_started);
    Alcotest.(check int) "second burst" 1 w2.Obs.Replay.fw_count
  | l -> Alcotest.failf "expected 2 windows, got %d" (List.length l)

(* ---------- conservation: trace vs runner accounting ---------- *)

(* Replay the full event stream of a run and require the reconstructed packet
   totals to equal the runner's own accounting exactly — same sent, same
   delivered, same count per drop cause, same residual in-flight. The run is
   the paper scenario (one flow, one failure on its path) with the flow
   carrying [traffic]. *)
let check_conservation ?(traffic = Convergence.Runner.Cbr None) engine =
  let sink, got = Obs.Sink.memory () in
  let trace = Obs.Trace.create sink in
  let cfg = Convergence.Config.with_degree 4 { quick with seed = 5 } in
  let flow = { Convergence.Runner.default_flow with flow_traffic = traffic } in
  let failure =
    {
      Convergence.Runner.fail_at = cfg.Convergence.Config.failure_time;
      target = Convergence.Runner.Flow_path 0;
      heal_after = None;
    }
  in
  let r =
    Convergence.Metrics.run_of_multi
      (Convergence.Engine_registry.run_multi ~trace ~flows:[ flow ]
         ~failures:[ failure ] cfg engine)
  in
  Obs.Trace.close trace;
  let name = Convergence.Engine_registry.name engine in
  let t = Obs.Replay.totals (got ()) in
  let drops reason = List.assoc reason t.Obs.Replay.drops in
  Alcotest.(check int) (name ^ " sent") r.Convergence.Metrics.sent t.Obs.Replay.sent;
  Alcotest.(check int) (name ^ " delivered") r.Convergence.Metrics.delivered
    t.Obs.Replay.delivered;
  Alcotest.(check int) (name ^ " no-route") r.Convergence.Metrics.drops_no_route
    (drops Netsim.Types.No_route);
  Alcotest.(check int) (name ^ " ttl") r.Convergence.Metrics.drops_ttl
    (drops Netsim.Types.Ttl_expired);
  Alcotest.(check int) (name ^ " queue") r.Convergence.Metrics.drops_queue
    (drops Netsim.Types.Queue_overflow);
  Alcotest.(check int) (name ^ " link") r.Convergence.Metrics.drops_link
    (drops Netsim.Types.Link_down);
  Alcotest.(check int) (name ^ " in flight") (Convergence.Metrics.in_flight r)
    (Obs.Replay.in_flight t)

let test_conservation_rip () = check_conservation Convergence.Engine_registry.rip
let test_conservation_dbf () = check_conservation Convergence.Engine_registry.dbf
let test_conservation_bgp () = check_conservation Convergence.Engine_registry.bgp

(* A transfer's data packets are accounted like CBR packets; its ACKs are
   neither counted nor traced. 3000 packets at window 16 cross the failure,
   so the drop and retransmission paths are both exercised. *)
let test_conservation_transfer () =
  check_conservation
    ~traffic:
      (Convergence.Runner.Transfer
         {
           Convergence.Runner.default_transport with
           rto = 0.5;
           total_packets = 3000;
         })
    Convergence.Engine_registry.dbf

(* The same property must survive a JSONL serialization round trip. *)
let test_conservation_through_jsonl () =
  let buf = Buffer.create 4096 in
  let sink = Obs.Sink.jsonl_writer (fun line -> Buffer.add_string buf (line ^ "\n")) in
  let trace = Obs.Trace.create sink in
  let cfg = Convergence.Config.with_degree 4 { quick with seed = 5 } in
  let r = Convergence.Engine_registry.run ~trace cfg Convergence.Engine_registry.dbf in
  Obs.Trace.close trace;
  let records, stats = Obs.Replay.of_string (Buffer.contents buf) in
  Alcotest.(check int) "nothing skipped" 0 stats.Obs.Replay.skipped;
  let t = Obs.Replay.totals records in
  Alcotest.(check int) "sent" r.Convergence.Metrics.sent t.Obs.Replay.sent;
  Alcotest.(check int) "delivered" r.Convergence.Metrics.delivered
    t.Obs.Replay.delivered;
  Alcotest.(check int) "in flight" (Convergence.Metrics.in_flight r)
    (Obs.Replay.in_flight t)

(* A trace must not perturb the simulation: the same seed with and without
   tracing yields identical results. *)
let test_trace_does_not_perturb () =
  let cfg = Convergence.Config.with_degree 4 { quick with seed = 5 } in
  let bare = Convergence.Engine_registry.run cfg Convergence.Engine_registry.bgp in
  let sink, _ = Obs.Sink.memory () in
  let trace = Obs.Trace.create sink in
  let traced =
    Convergence.Engine_registry.run ~trace cfg Convergence.Engine_registry.bgp
  in
  Alcotest.(check int) "sent" bare.Convergence.Metrics.sent
    traced.Convergence.Metrics.sent;
  Alcotest.(check int) "delivered" bare.Convergence.Metrics.delivered
    traced.Convergence.Metrics.delivered;
  Alcotest.(check int) "ctrl msgs" bare.Convergence.Metrics.ctrl_messages
    traced.Convergence.Metrics.ctrl_messages;
  Alcotest.(check (float 1e-9)) "routing convergence"
    bare.Convergence.Metrics.routing_convergence
    traced.Convergence.Metrics.routing_convergence

let () =
  Alcotest.run "trace"
    [
      ( "events",
        [
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "names distinct" `Quick test_event_names_distinct;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "memory" `Quick test_memory_sink;
          Alcotest.test_case "ring" `Quick test_ring_sink;
          Alcotest.test_case "csv header" `Quick test_csv_writer_header;
          Alcotest.test_case "format by extension" `Quick test_format_of_path;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_registry_counters_gauges;
          Alcotest.test_case "histogram" `Quick test_registry_histogram;
        ] );
      ( "trace",
        [
          Alcotest.test_case "filters" `Quick test_trace_filters;
          Alcotest.test_case "sequence numbers" `Quick test_trace_seq_numbers;
          Alcotest.test_case "tee" `Quick test_trace_tee;
        ] );
      ( "replay",
        [
          Alcotest.test_case "tolerates garbage" `Quick
            test_replay_tolerates_garbage;
          Alcotest.test_case "truncated line" `Quick test_replay_truncated_line;
          Alcotest.test_case "bad escape" `Quick test_replay_bad_escape;
          Alcotest.test_case "json parser never raises" `Quick
            test_json_opt_never_raises;
          Alcotest.test_case "loop report" `Quick test_replay_loop_report;
          Alcotest.test_case "frr report" `Quick test_replay_frr_report;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "RIP" `Quick test_conservation_rip;
          Alcotest.test_case "DBF" `Quick test_conservation_dbf;
          Alcotest.test_case "BGP" `Quick test_conservation_bgp;
          Alcotest.test_case "DBF transfer" `Quick test_conservation_transfer;
          Alcotest.test_case "through JSONL" `Quick
            test_conservation_through_jsonl;
          Alcotest.test_case "no perturbation" `Quick
            test_trace_does_not_perturb;
        ] );
    ]
