(* The checked-churn workload: many small fault-injected scenarios in the
   shape of Check.Fuzz, each run under the paper's four protocols with the
   invariant monitor, the BFS oracle and a metrics registry attached. It is
   the one workload where trace sinks, monitors, the oracle, the Rtx control
   transport, fast reroute and the per-cell campaign machinery (worker IPC,
   cache store and lookup, merge, artifact write) all carry load.

   Every scenario follows the fuzz discipline that keeps the oracle's
   expectation exact: failures and the flapping link are non-bridge edges,
   so the network never partitions, and every fault ends well before the
   oracle reads the tables at quiescence. *)

module E = Convergence.Engine_registry
module R = Convergence.Runner
module T = Netsim.Topology

(* Scenarios per workload seed; four cells each. *)
let scenarios = 100

(* Fuzz's timeline: 600 s to converge from cold start (BGP's 30 s MRAI times
   the graph diameter), faults within [610, 676], then >= 300 s of quiet. *)
let traffic_start = 600.

let sim_end = 1000.

type scenario = {
  index : int;
  topo : T.t;
  flows : R.flow_spec list;
  failures : R.failure_spec list;
  faults : Fault.Spec.t;
  cfg : Convergence.Config.t;
  recipe : string;  (** one line that names every drawn value *)
}

let non_bridges topo =
  List.filter
    (fun (u, v) -> T.is_connected (T.remove_edge topo u v))
    (T.edges topo)

let pick rng = function [] -> None | l -> Some (Dessim.Rng.pick rng l)

(* Graph families rotate with the scenario index rather than being drawn, so
   every seed gets the same family mix. *)
let build_topology rng index =
  let nodes = 8 + Dessim.Rng.int rng 17 in
  match index mod 3 with
  | 0 ->
    let p = Float.min 1.0 (3.5 /. float_of_int (nodes - 1)) in
    ( Printf.sprintf "er n=%d" nodes,
      Netsim.Random_topo.ensure_connected rng
        (Netsim.Random_topo.erdos_renyi rng ~nodes ~p) )
  | 1 ->
    let m = 2 + Dessim.Rng.int rng 2 in
    ( Printf.sprintf "ba n=%d m=%d" nodes m,
      Netsim.Random_topo.barabasi_albert rng ~nodes ~m )
  | _ ->
    (Printf.sprintf "hier n=%d" nodes, Netsim.Random_topo.hierarchical_auto rng ~nodes)

(* [build_topology] is the only net-layer call; the caller times it. *)
let scenario ~topology ~seed index =
  let rng = Dessim.Rng.create ((seed * 1_000_003) + index) in
  let shape, topo = topology rng index in
  let n = T.node_count topo in
  let pairs =
    List.init
      (1 + Dessim.Rng.int rng 3)
      (fun _ ->
        let src = Dessim.Rng.int rng n in
        (src, (src + 1 + Dessim.Rng.int rng (n - 1)) mod n))
  in
  let flows =
    List.map
      (fun (s, d) -> { R.default_flow with flow_src = Some s; flow_dst = Some d })
      pairs
  in
  (* Path failures that heal: each fails a non-bridge link of the first
     flow's initial shortest path when it has one, else any non-bridge link
     of what is still up. *)
  let path =
    let s, d = List.hd pairs in
    match T.shortest_path topo s d with
    | Some p ->
      let rec links = function a :: (b :: _ as tl) -> (a, b) :: links tl | _ -> [] in
      links p
    | None -> []
  in
  let live = ref topo in
  let failures =
    List.filter_map
      (fun _ ->
        let nb = non_bridges !live in
        let on_path =
          List.filter (fun (u, v) -> List.mem (u, v) path || List.mem (v, u) path) nb
        in
        let at = traffic_start +. float_of_int (10 + Dessim.Rng.int rng 31) in
        let heal = float_of_int (5 + Dessim.Rng.int rng 21) in
        match pick rng (if on_path <> [] then on_path else nb) with
        | None -> None
        | Some (u, v) ->
          live := T.remove_edge !live u v;
          Some { R.fail_at = at; target = R.Link (u, v); heal_after = Some heal })
      (List.init (1 + Dessim.Rng.int rng 2) Fun.id)
  in
  let loss_pct = Dessim.Rng.int rng 11 in
  let flap_start = traffic_start +. float_of_int (10 + Dessim.Rng.int rng 31) in
  let cycles = 1 + Dessim.Rng.int rng 3 in
  let half = float_of_int (2 + Dessim.Rng.int rng 5) in
  let flaps, flap_desc =
    match pick rng (non_bridges !live) with
    | None -> ([], "none")
    | Some (u, v) ->
      ( [
          Fault.Schedule.flap
            ~link:(Fault.Schedule.Edge (u, v))
            ~start:flap_start ~cycles ~down:half ~up:half ();
        ],
        Printf.sprintf "%d-%d@%.0f x%d/%.0fs" u v flap_start cycles half )
  in
  let faults =
    {
      Fault.Spec.none with
      Fault.Spec.noise =
        (if loss_pct = 0 then None
         else
           Some
             {
               Fault.Perturb.none with
               Fault.Perturb.drop = float_of_int loss_pct /. 100.;
               scope = Fault.Perturb.Control_only;
             });
      flaps;
      rtx = Some Fault.Rtx.default_config;
    }
  in
  let rate = 2 + Dessim.Rng.int rng 9 in
  let cfg_seed = 1 + Dessim.Rng.int rng 99_999 in
  let cfg =
    {
      Convergence.Config.quick with
      rows = 3;
      cols = 3;
      degree = 4;
      send_rate_pps = float_of_int rate;
      traffic_start;
      warmup = traffic_start;
      failure_time = traffic_start +. 10.;
      sim_end;
      seed = cfg_seed;
    }
  in
  let recipe =
    Printf.sprintf
      "scenario %d: %s; flows %s; %d pps; failures %s; loss %d%%; flap %s; \
       cfg_seed %d; frr on"
      index shape
      (String.concat "," (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) pairs))
      rate
      (String.concat ","
         (List.map
            (fun (f : R.failure_spec) ->
              match f.R.target with
              | R.Link (u, v) ->
                Printf.sprintf "%d-%d@%.0f+%.0f" u v f.R.fail_at
                  (Option.value f.R.heal_after ~default:0.)
              | _ -> "?")
            failures))
      loss_pct flap_desc cfg_seed
  in
  { index; topo; flows; failures; faults; cfg; recipe }

let scenarios_of ~topology seed =
  Array.init scenarios (scenario ~topology ~seed)

(* The per-cell counts a cell row carries, read from the run's registry and
   the checks: deterministic, so they survive the worker wire and the cache
   and take part in the cold/warm byte comparison. *)
let run_cell ~oracle sc engine () =
  let reg = Obs.Registry.create () in
  let monitor =
    Check.Monitor.create ~initial_ttl:sc.cfg.Convergence.Config.ttl ~topo:sc.topo ()
  in
  let max_metric =
    match E.name engine with
    | "RIP" | "DBF" ->
      Some Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric
    | _ -> None
  in
  let mismatches = ref 0 in
  let m =
    E.run_multi ~topology:sc.topo ~faults:sc.faults ~frr:true
      ~monitors:[ Check.Monitor.sink monitor ]
      ~metrics:reg
      ~on_quiesce:(fun view ->
        oracle (fun () ->
            mismatches :=
              List.length (Check.Oracle.check ?max_metric view)
              + List.length (Check.Oracle.check_frr view)))
      ~flows:sc.flows ~failures:sc.failures sc.cfg engine
  in
  let violations = List.length (Check.Monitor.finish monitor) in
  let reading name =
    match Obs.Registry.lookup reg name with
    | Some (Obs.Registry.Counter_value n) -> float_of_int n
    | Some (Obs.Registry.Gauge_value g) -> g
    | Some (Obs.Registry.Histogram_value _) | None -> 0.
  in
  let extras =
    [
      ("oracle_mismatches", float_of_int !mismatches);
      ("monitor_violations", float_of_int violations);
      ("data_forwards", reading "sched.data_forwards");
      ("timer_fires", reading "sched.timer_fires");
      ("rtx_retransmissions", reading "rtx.retransmissions");
      ("injected_ctrl_drops", reading "fault.injected_ctrl_drops");
      ("frr_installs", reading "frr.installs");
      ("frr_forwards", reading "frr.forwards");
      ("frr_exhausted", reading "frr.exhausted");
    ]
  in
  (* The scenario index is the cell key's sweep dimension. *)
  { (Campaign.Cell_result.of_multi ~extras m) with Campaign.Cell_result.degree = sc.index }

let tasks ?(oracle = fun f -> f ()) scs =
  Array.concat
    (List.map
       (fun engine ->
         Array.map
           (fun sc ->
             {
               Campaign.Sections.t_protocol = E.name engine;
               t_degree = sc.index;
               t_seed = sc.cfg.Convergence.Config.seed;
               t_run = run_cell ~oracle sc engine;
             })
           scs)
       E.paper_four)
