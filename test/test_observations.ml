(* Scripted checks of the paper's five Observations (Section 5), with loose
   thresholds: these assert the *shape* of each result, not absolute numbers.
   A shortened timeline (failure at 80 s, 120 s of post-failure observation)
   keeps the suite fast while leaving room for RIP's periodic recovery and
   several BGP MRAI rounds. *)

let base =
  (* The paper's warm-up (standard BGP needs ~diameter x MRAI to converge
     initially) with a shortened 130 s post-failure tail: enough for RIP's
     periodic recovery and several BGP MRAI rounds. *)
  {
    Convergence.Config.default with
    send_rate_pps = 100.;
    traffic_start = 350.;
    warmup = 390.;
    failure_time = 400.;
    sim_end = 530.;
  }

let seeds = [ 11; 12; 13 ]

let mean_of f runs = Dessim.Stat.mean (List.map f runs)

(* Memoize cells: several observations share (engine, degree) sweeps. *)
let cell_cache : (string * int, Convergence.Metrics.multi list) Hashtbl.t =
  Hashtbl.create 16

let runs_for engine degree =
  let key = (Convergence.Engine_registry.name engine, degree) in
  match Hashtbl.find_opt cell_cache key with
  | Some runs -> runs
  | None ->
    let runs =
      List.map
        (fun seed ->
          Convergence.Engine_registry.run
            (Convergence.Config.with_degree degree { base with seed })
            engine)
        seeds
    in
    Hashtbl.replace cell_cache key runs;
    runs

let drops m = float_of_int (One_flow.get m).Convergence.Metrics.f_drops_no_route

let ttl_drops m = float_of_int (One_flow.get m).Convergence.Metrics.f_drops_ttl

(* Observation 1: packet drops decrease as node degree increases; at degree 6
   and above DBF/BGP/BGP-3 drop (virtually) nothing, while RIP improves only
   slightly and keeps dropping packets. *)

let test_obs1_rip_keeps_dropping () =
  let sparse = mean_of drops (runs_for Convergence.Engine_registry.rip 3) in
  let dense = mean_of drops (runs_for Convergence.Engine_registry.rip 6) in
  Alcotest.(check bool) "rip drops a lot even when dense" true (dense > 50.);
  Alcotest.(check bool) "sparse >= dense-ish" true (sparse > dense /. 4.)

let test_obs1_caching_protocols_stop_dropping_at_6 () =
  List.iter
    (fun engine ->
      let name = Convergence.Engine_registry.name engine in
      let dense = mean_of drops (runs_for engine 6) in
      if dense > 5. then Alcotest.failf "%s drops %.1f at degree 6" name dense)
    Convergence.Engine_registry.[ dbf; bgp; bgp3 ]

let test_obs1_rip_dwarfs_dbf () =
  let rip = mean_of drops (runs_for Convergence.Engine_registry.rip 4) in
  let dbf = mean_of drops (runs_for Convergence.Engine_registry.dbf 4) in
  Alcotest.(check bool) "RIP >> DBF" true (rip > (10. *. dbf) +. 50.)

(* Observation 2: no TTL expirations at degree >= 6 for any protocol. *)

let test_obs2_no_ttl_expirations_when_dense () =
  List.iter
    (fun engine ->
      let name = Convergence.Engine_registry.name engine in
      let v = mean_of ttl_drops (runs_for engine 6) in
      if v > 0.5 then Alcotest.failf "%s: %.1f TTL expirations at degree 6" name v)
    Convergence.Engine_registry.paper_four

(* Observation 3: in a sparse network the failure knocks throughput down; it
   recovers around the triggered/periodic timer scale. In a dense network the
   hole (almost) disappears for the caching protocols but not for RIP. *)

(* Number of post-failure 1 s buckets below 80% of the sending rate. *)
let hole_buckets m =
  let tput = (One_flow.get m).Convergence.Metrics.f_throughput in
  let count = ref 0 in
  (* failure at 400 s = bucket 10 (warmup 390). *)
  for i = 10 to Dessim.Series.buckets tput - 1 do
    if Dessim.Series.rate tput i < 0.8 *. base.Convergence.Config.send_rate_pps then incr count
  done;
  !count

let test_obs3_rip_hole_is_long_dbf_hole_is_short () =
  let rip = Dessim.Stat.mean (List.map (fun r -> float_of_int (hole_buckets r)) (runs_for Convergence.Engine_registry.rip 3)) in
  let dbf = Dessim.Stat.mean (List.map (fun r -> float_of_int (hole_buckets r)) (runs_for Convergence.Engine_registry.dbf 3)) in
  Alcotest.(check bool)
    (Printf.sprintf "rip hole (%.1f) longer than dbf hole (%.1f)" rip dbf)
    true (rip > dbf);
  Alcotest.(check bool) "rip hole is seconds-long" true (rip >= 3.)

let test_obs3_dense_network_closes_the_hole_for_dbf () =
  let dbf6 = Dessim.Stat.mean (List.map (fun r -> float_of_int (hole_buckets r)) (runs_for Convergence.Engine_registry.dbf 6)) in
  Alcotest.(check bool) "dbf hole ~0 at degree 6" true (dbf6 <= 1.5)

(* Observation 4: BGP-3 converges (forwarding path) much faster than BGP, but
   the packet-drop difference between them is negligible at degree >= 6. *)

let test_obs4_mrai_speeds_convergence_not_delivery () =
  let bgp = runs_for Convergence.Engine_registry.bgp 6 in
  let bgp3 = runs_for Convergence.Engine_registry.bgp3 6 in
  let conv m = m.Convergence.Metrics.m_routing_convergence in
  let c = mean_of conv bgp and c3 = mean_of conv bgp3 in
  Alcotest.(check bool)
    (Printf.sprintf "BGP-3 routing convergence (%.1f) << BGP (%.1f)" c3 c)
    true (c3 < c /. 2.);
  let d = mean_of drops bgp and d3 = mean_of drops bgp3 in
  Alcotest.(check bool) "drop difference negligible" true (abs_float (d -. d3) < 5.)

(* Observation 5: packets delivered during convergence can take longer paths;
   the delay of delivered packets right after the failure exceeds the steady
   state for the caching protocols in a sparse network. *)

let test_obs5_delay_spike_during_convergence () =
  let runs = runs_for Convergence.Engine_registry.dbf 3 in
  let spikes =
    List.map
      (fun m ->
        let d = (One_flow.get m).Convergence.Metrics.f_delay in
        let steady = Dessim.Series.mean d 5 in
        (* max mean delay in the 40 s after the failure (buckets 10..50) *)
        let worst = ref 0. in
        for i = 10 to 50 do
          if Dessim.Series.mean d i > !worst then worst := Dessim.Series.mean d i
        done;
        (steady, !worst))
      runs
  in
  (* In a sparse (degree 3) mesh the detour around the failed link is longer
     than the original path in at least some runs. *)
  let exceeded = List.exists (fun (steady, worst) -> worst > steady *. 1.05) spikes in
  Alcotest.(check bool) "post-failure delay exceeds steady state" true exceeded

(* Determinism guard for the whole observation suite: summaries over the same
   seeds are reproducible. *)
let test_observations_reproducible () =
  let a = mean_of drops (runs_for Convergence.Engine_registry.rip 4) in
  let b = mean_of drops (runs_for Convergence.Engine_registry.rip 4) in
  Alcotest.(check (float 0.)) "same mean" a b

let () =
  Alcotest.run "observations"
    [
      ( "observation 1 (drops vs degree)",
        [
          Alcotest.test_case "rip keeps dropping" `Slow test_obs1_rip_keeps_dropping;
          Alcotest.test_case "caching stops drops at 6" `Slow
            test_obs1_caching_protocols_stop_dropping_at_6;
          Alcotest.test_case "rip dwarfs dbf" `Slow test_obs1_rip_dwarfs_dbf;
        ] );
      ( "observation 2 (ttl)",
        [
          Alcotest.test_case "no loops when dense" `Slow
            test_obs2_no_ttl_expirations_when_dense;
        ] );
      ( "observation 3 (throughput)",
        [
          Alcotest.test_case "rip hole longest" `Slow
            test_obs3_rip_hole_is_long_dbf_hole_is_short;
          Alcotest.test_case "density closes hole" `Slow
            test_obs3_dense_network_closes_the_hole_for_dbf;
        ] );
      ( "observation 4 (mrai)",
        [
          Alcotest.test_case "faster convergence, same delivery" `Slow
            test_obs4_mrai_speeds_convergence_not_delivery;
        ] );
      ( "observation 5 (delay)",
        [ Alcotest.test_case "delay spike" `Slow test_obs5_delay_spike_during_convergence ]
      );
      ( "reproducibility",
        [ Alcotest.test_case "stable means" `Slow test_observations_reproducible ] );
    ]
