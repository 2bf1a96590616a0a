module E = Convergence.Engine_registry
module X = Convergence.Experiments
module C = Convergence.Config
module M = Convergence.Metrics
module R = Convergence.Runner

type task = {
  t_protocol : string;
  t_degree : int;
  t_seed : int;
  t_run : unit -> Cell_result.t;
}

type t = {
  name : string;
  family : string;
  title : string;
  doc : string;
  include_series : bool;
  tasks : X.sweep -> task array;
  render : Format.formatter -> Artifact.t -> unit;
}

(* The inclusive normalized window the paper's time-series figures print,
   matching the old bench's [~window:(0., 60.)]. *)
let window_lo = 0.

let window_hi = 60.

let cfg_of (sweep : X.sweep) degree i =
  sweep.X.base |> C.with_degree degree |> C.with_seed (sweep.X.base.C.seed + i)

(* ---------- task builders ---------- *)

(* One task per (engine, degree, seed), in that nesting order — the canonical
   cell order every grid artifact uses. *)
let sweep_tasks (sweep : X.sweep) ~engines cell =
  engines
  |> List.concat_map (fun engine ->
         sweep.X.degrees
         |> List.concat_map (fun degree ->
                List.init sweep.X.runs (fun i ->
                    let cfg = cfg_of sweep degree i in
                    {
                      t_protocol = E.name engine;
                      t_degree = degree;
                      t_seed = cfg.C.seed;
                      t_run = (fun () -> cell cfg engine);
                    })))
  |> Array.of_list

let grid_tasks ?(with_series = false) ~engines sweep =
  sweep_tasks sweep ~engines (fun cfg engine ->
      let r = E.run cfg engine in
      let series =
        if with_series then
          let windowed s =
            Cell_result.windowed ~warmup:cfg.C.warmup ~lo:window_lo
              ~hi:window_hi s
          in
          [
            ("throughput", windowed r.M.throughput);
            ("delay", windowed r.M.delay);
          ]
        else []
      in
      Cell_result.of_run ~series r)

(* ---------- render helpers ---------- *)

let protocols_of (a : Artifact.t) =
  List.fold_left
    (fun acc (g : Artifact.aggregate) ->
      if List.mem g.Artifact.a_protocol acc then acc
      else acc @ [ g.Artifact.a_protocol ])
    [] a.Artifact.aggregates

let scalar_data (a : Artifact.t) metric =
  List.map
    (fun proto ->
      ( proto,
        List.filter_map
          (fun (g : Artifact.aggregate) ->
            if g.Artifact.a_protocol <> proto then None
            else
              Option.map
                (fun (s : Artifact.stat) -> (g.Artifact.a_degree, s.Artifact.mean))
                (List.assoc_opt metric g.Artifact.a_metrics))
          a.Artifact.aggregates ))
    (protocols_of a)

let scalar_table ~title ~unit_label ~metric ppf a =
  Fmt.pf ppf "%a@.@."
    (Convergence.Report.scalar_table ~title ~unit_label)
    (scalar_data a metric)

(* Per-protocol time series against normalized time, driven by the stored
   (count, sum) buckets: [`Rate] prints counts per second (throughput),
   [`Mean] per-bucket means (delay). *)
let series_table ~title ~unit_label ~mode ~metric ~degree ppf (a : Artifact.t) =
  let data =
    List.filter_map
      (fun (g : Artifact.aggregate) ->
        if g.Artifact.a_degree <> degree then None
        else
          Option.map
            (fun s -> (g.Artifact.a_protocol, s))
            (List.assoc_opt metric g.Artifact.a_series))
      a.Artifact.aggregates
  in
  let rule width = Fmt.pf ppf "%s@," (String.make width '-') in
  let width = 8 + (10 * List.length data) in
  Fmt.pf ppf "@[<v>%s (%s; time normalized to warmup end)@," title unit_label;
  rule width;
  Fmt.pf ppf "%-8s" "t(s)";
  List.iter (fun (p, _) -> Fmt.pf ppf "%10s" p) data;
  Fmt.pf ppf "@,";
  rule width;
  (match data with
  | [] -> ()
  | (_, (model : Cell_result.series)) :: _ ->
    for i = 0 to Array.length model.Cell_result.s_counts - 1 do
      let t =
        model.Cell_result.s_start +. (float_of_int i *. model.Cell_result.s_width)
      in
      Fmt.pf ppf "%-8.0f" t;
      List.iter
        (fun (_, (s : Cell_result.series)) ->
          let c = s.Cell_result.s_counts.(i) and v = s.Cell_result.s_sums.(i) in
          let value =
            match mode with
            | `Rate -> c /. s.Cell_result.s_width
            | `Mean -> if c = 0. then 0. else v /. c
          in
          Fmt.pf ppf "%10.3f" value)
        data;
      Fmt.pf ppf "@,"
    done);
  rule width;
  Fmt.pf ppf "@]@.@."

let series_section ~metric ~mode ~degrees ~title_of ~unit_label ppf
    (a : Artifact.t) =
  List.iter
    (fun degree ->
      if List.mem degree a.Artifact.params.Artifact.degrees then
        series_table ~title:(title_of degree) ~unit_label ~mode ~metric ~degree
          ppf a)
    degrees

(* ---------- the paper-grid family ---------- *)

let paper_tasks sweep = grid_tasks ~with_series:true ~engines:E.paper_four sweep

let paper name ~include_series ~title ~doc render =
  { name; family = "paper"; title; doc; include_series; tasks = paper_tasks; render }

let fig3 =
  paper "fig3" ~include_series:false
    ~title:"Figure 3: packet drops due to no route, vs node degree"
    ~doc:"packet drops due to no route, vs node degree"
    (fun ppf a ->
      scalar_table ~title:"Fig 3 - drops (no route)"
        ~unit_label:"packets, mean over runs" ~metric:"drops_no_route" ppf a)

let fig4 =
  paper "fig4" ~include_series:false
    ~title:"Figure 4: TTL expirations during convergence, vs node degree"
    ~doc:"TTL expirations during convergence, vs node degree"
    (fun ppf a ->
      scalar_table ~title:"Fig 4 - TTL expirations"
        ~unit_label:"packets, mean over runs" ~metric:"drops_ttl" ppf a)

let fig5 =
  paper "fig5" ~include_series:true
    ~title:"Figure 5: instantaneous throughput vs time"
    ~doc:"instantaneous throughput vs time (degrees 3, 4, 6)"
    (series_section ~metric:"throughput" ~mode:`Rate ~degrees:[ 3; 4; 6 ]
       ~title_of:(Printf.sprintf "Fig 5 - throughput, degree %d")
       ~unit_label:"packets/s")

let fig6 =
  paper "fig6" ~include_series:false
    ~title:"Figure 6: convergence times vs node degree"
    ~doc:"forwarding-path and network routing convergence vs node degree"
    (fun ppf a ->
      scalar_table ~title:"Fig 6(a) - forwarding-path convergence"
        ~unit_label:"seconds" ~metric:"fwd_convergence" ppf a;
      scalar_table ~title:"Fig 6(b) - network routing convergence"
        ~unit_label:"seconds" ~metric:"routing_convergence" ppf a)

let fig7 =
  paper "fig7" ~include_series:true
    ~title:"Figure 7: instantaneous packet delay vs time"
    ~doc:"instantaneous delay of delivered packets vs time (degrees 4, 5, 6)"
    (series_section ~metric:"delay" ~mode:`Mean ~degrees:[ 4; 5; 6 ]
       ~title_of:(Printf.sprintf "Fig 7 - delay of delivered packets, degree %d")
       ~unit_label:"seconds")

let overhead =
  paper "overhead" ~include_series:false
    ~title:"Control-message overhead (Section 2 cost axis)"
    ~doc:"routing messages per run, vs node degree"
    (fun ppf a ->
      scalar_table ~title:"Routing messages per run" ~unit_label:"messages, mean"
        ~metric:"ctrl_messages" ppf a)

(* ---------- scenarios ---------- *)

let scenarios_tasks (sweep : X.sweep) =
  let cfg = sweep.X.base in
  E.all
  |> List.map (fun engine ->
         {
           t_protocol = E.name engine;
           t_degree = cfg.C.degree;
           t_seed = cfg.C.seed;
           t_run =
             (fun () ->
               let metrics = Obs.Registry.create () in
               let r = E.run ~metrics cfg engine in
               let gauge name =
                 match Obs.Registry.lookup metrics name with
                 | Some (Obs.Registry.Gauge_value v) -> v
                 | Some _ | None -> Float.nan
               in
               Cell_result.of_run
                 ~extras:
                   [
                     ("sched_events", gauge "scheduler.events_fired");
                     ("max_queue_depth", gauge "scheduler.max_queue_depth");
                   ]
                 r);
         })
  |> Array.of_list

let render_scenarios ppf (a : Artifact.t) =
  let wall_of (c : Cell_result.t) =
    match a.Artifact.timing with
    | None -> Float.nan
    | Some t -> (
      match
        List.find_opt
          (fun (ct : Artifact.cell_timing) ->
            ct.Artifact.ct_protocol = c.Cell_result.protocol
            && ct.Artifact.ct_degree = c.Cell_result.degree
            && ct.Artifact.ct_seed = c.Cell_result.seed)
          t.Artifact.t_cells
      with
      | Some ct -> ct.Artifact.ct_wall_s
      | None -> Float.nan)
  in
  List.iter
    (fun (c : Cell_result.t) ->
      let extra name = Option.value ~default:Float.nan (List.assoc_opt name c.Cell_result.extras) in
      Fmt.pf ppf
        "%-8s %6.2f s wall  (%d packets, %d control msgs, %.0f sched events, \
         queue depth <= %.0f)@."
        c.Cell_result.protocol (wall_of c) c.Cell_result.sent
        c.Cell_result.ctrl_messages (extra "sched_events")
        (extra "max_queue_depth"))
    a.Artifact.cells;
  Fmt.pf ppf "@."

let scenarios =
  {
    name = "scenarios";
    family = "scenarios";
    title = "full-scenario wall-clock cost (one paper run per engine)";
    doc = "wall-clock cost of one full paper scenario per engine";
    include_series = false;
    tasks = scenarios_tasks;
    render = render_scenarios;
  }

(* ---------- ablations and extensions ---------- *)

let ablation_mrai =
  {
    name = "ablation-mrai";
    family = "ablation-mrai";
    title = "Ablation: MRAI granularity (per neighbor vs per (neighbor, destination))";
    doc = "BGP MRAI per neighbor vs per (neighbor, destination)";
    include_series = false;
    tasks = (fun sweep -> grid_tasks ~engines:[ E.bgp; E.bgp_per_dest ] sweep);
    render =
      (fun ppf a ->
        scalar_table ~title:"drops (no route)" ~unit_label:"packets"
          ~metric:"drops_no_route" ppf a;
        scalar_table ~title:"TTL expirations" ~unit_label:"packets"
          ~metric:"drops_ttl" ppf a;
        scalar_table ~title:"routing convergence" ~unit_label:"seconds"
          ~metric:"routing_convergence" ppf a);
  }

let damping_intervals = [ (0.1, 0.2); (1., 5.); (5., 10.) ]

let damping_engines =
  List.map
    (fun (dmin, dmax) ->
      let cfg =
        { Protocols.Dv_core.default_config with damp_min = dmin; damp_max = dmax }
      in
      E.Engine ((module Protocols.Dbf), cfg, Printf.sprintf "DBF[%g-%gs]" dmin dmax))
    damping_intervals

let ablation_damping =
  {
    name = "ablation-damping";
    family = "ablation-damping";
    title = "Ablation: DBF triggered-update damping interval";
    doc = "DBF under different triggered-update damping intervals";
    include_series = false;
    tasks = (fun sweep -> grid_tasks ~engines:damping_engines sweep);
    render =
      (fun ppf a ->
        scalar_table ~title:"drops (no route)" ~unit_label:"packets"
          ~metric:"drops_no_route" ppf a;
        scalar_table ~title:"routing convergence" ~unit_label:"seconds"
          ~metric:"routing_convergence" ppf a;
        scalar_table ~title:"control messages" ~unit_label:"messages"
          ~metric:"ctrl_messages" ppf a);
  }

(* A corner-to-corner flow pinned on the mesh diagonal, with the middle link
   of its shortest path as the failure target. Pinning (rather than the
   paper's random flow) keeps the failure geometry identical across the
   on/off arms of an ablation. *)
let pinned_midlink_flow (cfg : C.t) ~what =
  let topo = Netsim.Mesh.generate ~rows:cfg.C.rows ~cols:cfg.C.cols ~degree:cfg.C.degree in
  let src = 0 and dst = C.nodes cfg - 1 in
  let path =
    match Netsim.Topology.shortest_path topo src dst with
    | Some p -> p
    | None -> invalid_arg (what ^ ": disconnected mesh")
  in
  let rec nth_link i = function
    | a :: (b :: _ as rest) -> if i = 0 then (a, b) else nth_link (i - 1) rest
    | _ -> invalid_arg (what ^ ": path too short")
  in
  let u, v = nth_link (List.length path / 2) path in
  let flow = { R.default_flow with flow_src = Some src; flow_dst = Some dst } in
  (flow, (u, v))

(* A link on the flow's shortest path flaps three times (4 s down, 4 s up),
   then stays up — the scenario the intro's route-flap-damping references
   [4]/[15] describe. *)
let flap_scenario (cfg : C.t) =
  let flow, (u, v) = pinned_midlink_flow cfg ~what:"campaign rfd" in
  let flap i =
    {
      R.fail_at = cfg.C.failure_time +. (float_of_int i *. 8.);
      target = R.Link (u, v);
      heal_after = Some 4.;
    }
  in
  (flow, List.init 3 flap)

let rfd_cell cfg engine =
  let flow, failures = flap_scenario cfg in
  let m = E.run_multi ~flows:[ flow ] ~failures cfg engine in
  let ratio =
    match m.M.m_flows with
    | [ f ] -> M.flow_delivery_ratio f
    | _ -> Float.nan
  in
  Cell_result.of_multi ~extras:[ ("delivery_ratio", ratio) ] m

let ablation_rfd =
  {
    name = "ablation-rfd";
    family = "ablation-rfd";
    title = "Ablation: route flap damping under a flapping link (intro refs [4]/[15])";
    doc = "BGP-3 with and without route flap damping under a flapping link";
    include_series = false;
    tasks = (fun sweep -> sweep_tasks sweep ~engines:[ E.bgp3; E.bgp3_rfd ] rfd_cell);
    render =
      (fun ppf a ->
        scalar_table ~title:"delivery ratio across three flaps"
          ~unit_label:"fraction" ~metric:"delivery_ratio" ppf a;
        scalar_table ~title:"no-route drops" ~unit_label:"packets"
          ~metric:"drops_no_route" ppf a;
        scalar_table ~title:"routing convergence from first flap"
          ~unit_label:"seconds" ~metric:"routing_convergence" ppf a);
  }

let ext_ls =
  {
    name = "ext-ls";
    family = "ext-ls";
    title = "Extension: link-state protocol (paper future work)";
    doc = "link-state extension vs DBF and BGP-3";
    include_series = false;
    tasks = (fun sweep -> grid_tasks ~engines:[ E.ls; E.dbf; E.bgp3 ] sweep);
    render =
      (fun ppf a ->
        scalar_table ~title:"drops (no route)" ~unit_label:"packets"
          ~metric:"drops_no_route" ppf a;
        scalar_table ~title:"forwarding-path convergence" ~unit_label:"seconds"
          ~metric:"fwd_convergence" ppf a;
        scalar_table ~title:"routing convergence" ~unit_label:"seconds"
          ~metric:"routing_convergence" ppf a);
  }

(* Four concurrent flows, two failures 5 s apart. The per-flow rate is halved
   (200 -> 100 pps) so the aggregate offered load stays comparable to the
   single-flow sections. *)
let multiflow_cell cfg engine =
  let cfg = { cfg with C.send_rate_pps = 100. } in
  let flows = List.init 4 (fun _ -> R.default_flow) in
  let failures =
    List.init 2 (fun i ->
        {
          R.fail_at = cfg.C.failure_time +. (float_of_int i *. 5.);
          target = R.Flow_path (i mod 4);
          heal_after = None;
        })
  in
  let m = E.run_multi ~flows ~failures cfg engine in
  let ratio = Dessim.Stat.mean (List.map M.flow_delivery_ratio m.M.m_flows) in
  Cell_result.of_multi ~extras:[ ("delivery_ratio", ratio) ] m

let ext_multiflow =
  {
    name = "ext-multiflow";
    family = "ext-multiflow";
    title = "Extension: multiple flows, overlapping failures (paper future work)";
    doc = "four flows, two overlapping failures";
    include_series = false;
    tasks = (fun sweep -> sweep_tasks sweep ~engines:E.paper_four multiflow_cell);
    render =
      (fun ppf a ->
        scalar_table
          ~title:"aggregate delivery ratio (4 flows, 2 failures 5 s apart)"
          ~unit_label:"fraction" ~metric:"delivery_ratio" ppf a;
        scalar_table ~title:"no-route drops summed over flows"
          ~unit_label:"packets" ~metric:"drops_no_route" ppf a;
        scalar_table ~title:"routing convergence from first failure"
          ~unit_label:"seconds" ~metric:"routing_convergence" ppf a);
  }

(* A go-back-N transfer sized to span the failure comfortably at the
   window-limited rate (~100 pps on these paths). *)
let transport_flow =
  {
    R.default_flow with
    flow_traffic =
      R.Transfer
        { R.default_transport with window = 16; rto = 0.5; total_packets = 8000 };
  }

(* Seconds of zero goodput in the minute after the failure, stopping at
   transfer completion: zero goodput after the last ack is not a stall. *)
let stall_seconds (cfg : C.t) (o : M.transfer) =
  let g = o.M.t_goodput in
  let count = ref 0 in
  let from_bucket =
    match Dessim.Series.bucket_of_time g cfg.C.failure_time with
    | Some b -> b
    | None -> 0
  in
  let horizon =
    match o.M.t_completed_at with
    | Some t -> (
      match Dessim.Series.bucket_of_time g t with
      | Some b -> b
      | None -> Dessim.Series.buckets g - 1)
    | None -> Dessim.Series.buckets g - 1
  in
  let upto = min horizon (from_bucket + 60) in
  for i = from_bucket to upto do
    if Dessim.Series.count g i = 0 then incr count
  done;
  float_of_int !count

let transport_cell cfg engine =
  let failures =
    [ { R.fail_at = cfg.C.failure_time; target = R.Flow_path 0; heal_after = None } ]
  in
  let m = E.run_multi ~flows:[ transport_flow ] ~failures cfg engine in
  let o =
    match m.M.m_flows with
    | [ { M.f_transfer = Some o; _ } ] -> o
    | _ -> invalid_arg "transport_cell: expected one transfer flow"
  in
  let finish = Option.value o.M.t_completed_at ~default:cfg.C.sim_end in
  Cell_result.of_multi
    ~extras:
      [
        ("completion_s", finish -. cfg.C.traffic_start);
        ("retransmissions", float_of_int o.M.t_retransmissions);
        ("stall_s", stall_seconds cfg o);
      ]
    m

let ext_transport =
  {
    name = "ext-transport";
    family = "ext-transport";
    title = "Extension: reliable transport across the failure (paper future work)";
    doc = "go-back-N transfer crossing the failure";
    include_series = false;
    tasks = (fun sweep -> sweep_tasks sweep ~engines:E.paper_four transport_cell);
    render =
      (fun ppf a ->
        scalar_table
          ~title:"transfer completion time (8000 packets, window 16, RTO 0.5 s)"
          ~unit_label:"seconds from transfer start" ~metric:"completion_s" ppf a;
        scalar_table ~title:"retransmissions" ~unit_label:"packets"
          ~metric:"retransmissions" ppf a;
        scalar_table ~title:"goodput stall after the failure"
          ~unit_label:"seconds at zero goodput" ~metric:"stall_s" ppf a);
  }

(* ---------- fault injection ---------- *)

(* The faults grid sweeps a fault axis, not mesh degree: cells reuse the
   artifact's degree field as the axis code — a loss cell stores its loss
   percentage directly, a flap cell stores [100 + period] so the two ranges
   cannot collide. The mesh degree stays the sweep base's. *)
let fault_loss_pcts = [ 0; 2; 5; 10 ]

let fault_flap_periods = [ 4; 8; 16 ]

let fault_axis_points =
  List.map (fun p -> `Loss p) fault_loss_pcts
  @ List.map (fun p -> `Flap p) fault_flap_periods

let fault_code = function `Loss pct -> pct | `Flap period -> 100 + period

(* Loss cells drop each control unit independently; flap cells drive one
   random link through three down/up cycles starting just after the paper
   failure. Both enable the reliable control transport, which only protocols
   with [uses_reliable_transport] (BGP, BGP-3) actually engage — RIP and DBF
   must survive on their periodic refresh, which is the comparison the
   section exists to draw. *)
let fault_spec (cfg : C.t) = function
  | `Loss pct -> Fault.Spec.control_loss (float_of_int pct /. 100.)
  | `Flap period ->
    let half = float_of_int period /. 2. in
    {
      Fault.Spec.none with
      Fault.Spec.flaps =
        [
          Fault.Schedule.flap ~start:(cfg.C.failure_time +. 5.) ~cycles:3
            ~down:half ~up:half ();
        ];
      rtx = Some Fault.Rtx.default_config;
    }

let faults_cell axis cfg engine =
  let faults = fault_spec cfg axis in
  let metrics = Obs.Registry.create () in
  let r = E.run ~faults ~metrics cfg engine in
  let gauge name =
    match Obs.Registry.lookup metrics name with
    | Some (Obs.Registry.Gauge_value v) -> v
    | Some _ | None -> 0.
  in
  let ratio =
    if r.M.sent = 0 then Float.nan
    else float_of_int r.M.delivered /. float_of_int r.M.sent
  in
  (* The cell's degree field carries the fault-axis code, not the (constant)
     mesh degree — it is the cell key's sweep dimension here. *)
  {
    (Cell_result.of_run
       ~extras:
         [
           ("delivery_ratio", ratio);
           ("retransmissions", gauge "rtx.retransmissions");
           ("injected_ctrl_drops", gauge "fault.injected_ctrl_drops");
         ]
       r)
    with
    Cell_result.degree = fault_code axis;
  }

let faults_tasks (sweep : X.sweep) =
  E.paper_four
  |> List.concat_map (fun engine ->
         fault_axis_points
         |> List.concat_map (fun axis ->
                List.init sweep.X.runs (fun i ->
                    let cfg = C.with_seed (sweep.X.base.C.seed + i) sweep.X.base in
                    {
                      t_protocol = E.name engine;
                      t_degree = fault_code axis;
                      t_seed = cfg.C.seed;
                      t_run = (fun () -> faults_cell axis cfg engine);
                    })))
  |> Array.of_list

let fault_axis_table ~title ~unit_label ~metric ~keep ~relabel ppf a =
  let data =
    List.map
      (fun (proto, points) ->
        ( proto,
          List.filter_map
            (fun (d, v) -> if keep d then Some (relabel d, v) else None)
            points ))
      (scalar_data a metric)
  in
  Fmt.pf ppf "%a@.@." (Convergence.Report.scalar_table ~title ~unit_label) data

let render_faults ppf a =
  let loss ~title ~unit_label ~metric =
    fault_axis_table ~title ~unit_label ~metric
      ~keep:(fun d -> d < 100)
      ~relabel:Fun.id ppf a
  and flap ~title ~unit_label ~metric =
    fault_axis_table ~title ~unit_label ~metric
      ~keep:(fun d -> d >= 100)
      ~relabel:(fun d -> d - 100)
      ppf a
  in
  loss ~title:"delivery ratio vs control-plane loss"
    ~unit_label:"fraction; rows are loss %" ~metric:"delivery_ratio";
  loss ~title:"routing convergence vs control-plane loss"
    ~unit_label:"seconds; rows are loss %" ~metric:"routing_convergence";
  loss ~title:"control retransmissions vs loss (reliable-transport protocols)"
    ~unit_label:"segments; rows are loss %" ~metric:"retransmissions";
  flap ~title:"delivery ratio vs link flapping"
    ~unit_label:"fraction; rows are flap period (s)" ~metric:"delivery_ratio";
  flap ~title:"routing convergence vs link flapping"
    ~unit_label:"seconds; rows are flap period (s)" ~metric:"routing_convergence"

let faults =
  {
    name = "faults";
    family = "faults";
    title =
      "Fault injection: delivery and convergence under control-plane loss \
       and link flapping";
    doc = "delivery ratio and convergence vs injected loss rate and flap period";
    include_series = false;
    tasks = faults_tasks;
    render = render_faults;
  }

(* ---------- performance ---------- *)

(* The perf grid sweeps topology size, not mesh degree: like the faults
   section, cells reuse the artifact's degree field as the axis code — here
   the mesh's node count. The mesh degree stays the sweep base's.

   Determinism split: everything a perf cell is allowed to put in [extras]
   (event and callback counts, queue depth) is a pure function of the
   simulated scenario. Machine-speed numbers (ns/event, events/sec) go into
   [Cell_result.perf], which the driver stores in the artifact's strippable
   [timing] block — and so does every [Gc]-derived number, allocation counts
   included: OCaml 5's [Gc.quick_stat] aggregates across domains, so a
   concurrent cell's allocations leak into this cell's delta whenever
   [--jobs] > 1. *)
let perf_meshes = [ (5, 5); (7, 7); (10, 10) ]

let perf_measured_runs = 2

let perf_cell (sweep : X.sweep) ~rows ~cols engine =
  let cfg = { sweep.X.base with C.rows; cols } in
  (* One unmeasured warm-up run absorbs one-time costs (domain-local slots,
     size-class growth), so a cell measures the same on whichever worker
     domain it lands — the jobs-independence the artifact diff checks. *)
  ignore (E.run cfg engine);
  let measure () =
    let metrics = Obs.Registry.create () in
    let t0 = Obs.Prof.now_ns () in
    let r, g = Obs.Prof.gc_delta (fun () -> E.run ~metrics cfg engine) in
    let ns = Int64.to_float (Int64.sub (Obs.Prof.now_ns ()) t0) in
    (r, metrics, g, ns)
  in
  let samples = List.init perf_measured_runs (fun _ -> measure ()) in
  (* Identical seeds give identical simulations: deterministic numbers come
     from the last sample, machine-speed numbers average over all of them. *)
  let r, metrics, _, _ = List.nth samples (perf_measured_runs - 1) in
  let gauge name =
    match Obs.Registry.lookup metrics name with
    | Some (Obs.Registry.Gauge_value v) -> v
    | Some _ | None -> Float.nan
  in
  let cnt name =
    match Obs.Registry.lookup metrics name with
    | Some (Obs.Registry.Counter_value n) -> float_of_int n
    | Some _ | None -> Float.nan
  in
  let events = gauge "scheduler.events_fired" in
  let mean f = Dessim.Stat.mean (List.map f samples) in
  let mean_ns = mean (fun (_, _, _, ns) -> ns) in
  let perf =
    if events > 0. && mean_ns > 0. then
      [
        ("ns_per_event", mean_ns /. events);
        ("events_per_s", events *. 1e9 /. mean_ns);
        ("minor_words_per_event", gauge "alloc.minor_words_per_event");
        ( "promoted_words",
          mean (fun (_, _, g, _) -> g.Obs.Prof.d_promoted_words) );
        ( "major_collections",
          mean (fun (_, _, g, _) -> float_of_int g.Obs.Prof.d_major_collections)
        );
        ( "minor_collections",
          mean (fun (_, _, g, _) -> float_of_int g.Obs.Prof.d_minor_collections)
        );
      ]
    else []
  in
  {
    (Cell_result.of_run
       ~extras:
         [
           ("sched_events", events);
           ("events_scheduled", gauge "scheduler.events_scheduled");
           ("max_queue_depth", gauge "scheduler.max_queue_depth");
           ("timer_fires", cnt "sched.timer_fires");
           ("data_forwards", cnt "sched.data_forwards");
         ]
       r)
    with
    (* node count as the cell key's sweep dimension *)
    Cell_result.degree = rows * cols;
    perf;
  }

let perf_tasks (sweep : X.sweep) =
  E.paper_four
  |> List.concat_map (fun engine ->
         perf_meshes
         |> List.map (fun (rows, cols) ->
                {
                  t_protocol = E.name engine;
                  t_degree = rows * cols;
                  t_seed = sweep.X.base.C.seed;
                  t_run = (fun () -> perf_cell sweep ~rows ~cols engine);
                }))
  |> Array.of_list

let render_perf ppf (a : Artifact.t) =
  let perf_of (c : Cell_result.t) =
    match a.Artifact.timing with
    | None -> []
    | Some t -> (
      match
        List.find_opt
          (fun (ct : Artifact.cell_timing) ->
            ct.Artifact.ct_protocol = c.Cell_result.protocol
            && ct.Artifact.ct_degree = c.Cell_result.degree
            && ct.Artifact.ct_seed = c.Cell_result.seed)
          t.Artifact.t_cells
      with
      | Some ct -> ct.Artifact.ct_perf
      | None -> [])
  in
  let rule = String.make 78 '-' in
  Fmt.pf ppf "engine speed by protocol and mesh size@.%s@." rule;
  Fmt.pf ppf "%-8s %6s %10s %12s %12s %10s %9s@." "proto" "nodes" "events"
    "events/s" "ns/event" "w/event" "promoted";
  Fmt.pf ppf "%s@." rule;
  let total_events = ref 0. and total_s = ref 0. in
  List.iter
    (fun (c : Cell_result.t) ->
      let extra name =
        Option.value ~default:Float.nan
          (List.assoc_opt name c.Cell_result.extras)
      in
      let perf = perf_of c in
      let p name = Option.value ~default:Float.nan (List.assoc_opt name perf) in
      let events = extra "sched_events" in
      let eps = p "events_per_s" in
      if Float.is_finite events && Float.is_finite eps && eps > 0. then begin
        total_events := !total_events +. events;
        total_s := !total_s +. (events /. eps)
      end;
      Fmt.pf ppf "%-8s %6d %10.0f %12.0f %12.1f %10.2f %9.0f@."
        c.Cell_result.protocol c.Cell_result.degree events eps
        (p "ns_per_event")
        (p "minor_words_per_event")
        (p "promoted_words"))
    a.Artifact.cells;
  Fmt.pf ppf "%s@." rule;
  if !total_s > 0. then
    Fmt.pf ppf "overall: %.0f events in %.2f s measured = %.0f events/s@."
      !total_events !total_s
      (!total_events /. !total_s);
  Fmt.pf ppf "@."

let perf =
  {
    name = "perf";
    family = "perf";
    title =
      "Engine performance: events/sec, ns/event and allocations/event by \
       protocol and mesh size";
    doc = "events/sec, ns/event and allocations/event per protocol and mesh size";
    include_series = false;
    tasks = perf_tasks;
    render = render_perf;
  }

(* ---------- topology families ---------- *)

(* The topo grid sweeps generator family × node count, not mesh degree: like
   the faults and perf sections, cells reuse the artifact's degree field as
   the axis code — [family_index * 100_000 + node_count], so BA at 1024 nodes
   is 201024 and the two dimensions can never collide. The sweep's [degrees]
   list carries the node counts (set by [sweep_for]). *)
let topo_families = [ (`Mesh, 0, "mesh"); (`Er, 1, "ER"); (`Ba, 2, "BA"); (`Hier, 3, "hierarchical") ]

let topo_axis ~family_idx ~nodes = (family_idx * 100_000) + nodes

(* Which protocols run at which size. The limiter is per-protocol routing
   state, not the generators: the path-vector pair keeps full AS paths per
   (node, neighbor, destination) in its adj-RIB-in — measured at several GB
   for one 1024-node cell — so BGP and BGP-3 stop at 256 nodes and the
   larger sizes run the O(n·deg) distance-vector pair. DBF used to stop at
   1024 as well: re-arming a 180 s cache timeout per (neighbor, destination)
   by cancel + reschedule left a tombstone population (entry rate × 180 s,
   × degree versus RIP's one timer per destination) that OOM-killed an ER
   DBF cell past 110 GB. With the in-place deadline re-arm
   (Route_table.Deadline_vec) the queue carries one event per live timer and
   DBF joins RIP in the 4096-node rows. The full scale audit is
   DESIGN.md §15. *)
let topo_protocols nodes =
  if nodes <= 256 then E.paper_four else [ E.rip; E.dbf ]

let topo_build family ~nodes ~seed =
  let rng = Dessim.Rng.create seed in
  match family with
  | `Mesh ->
    (* Node counts are chosen square (49/256/1024/4096), paper degree 4. *)
    let side = int_of_float (sqrt (float_of_int nodes) +. 0.5) in
    Netsim.Mesh.generate ~rows:side ~cols:side ~degree:4
  | `Er ->
    (* mean degree ~6, independent of size *)
    Netsim.Random_topo.erdos_renyi rng ~nodes ~p:(6. /. float_of_int (nodes - 1))
  | `Ba -> Netsim.Random_topo.barabasi_albert rng ~nodes ~m:2
  | `Hier -> Netsim.Random_topo.hierarchical_auto rng ~nodes

(* Worst-case per-hop settling allowance, from each protocol's own pacing:
   RIP/DBF triggered updates are damped 1-5 s (plus batching), BGP's MRAI is
   mean 30 s with ±25% jitter, BGP-3's is mean 3 s. *)
let topo_perhop = function
  | "BGP" -> 32.
  | "BGP-3" -> 5.
  | _ -> 6.

let topo_ecc dist =
  Array.fold_left (fun m d -> if d < max_int && d > m then d else m) 0 dist

let topo_cell (sweep : X.sweep) ~family ~family_idx ~nodes engine i =
  let base = sweep.X.base in
  let axis = topo_axis ~family_idx ~nodes in
  let seed = base.C.seed + i in
  let proto = E.name engine in
  let topo = topo_build family ~nodes ~seed:(seed + (axis * 7919)) in
  (* Flow endpoints: src 0, dst among nodes at BFS distance min(ecc, 10) —
     far enough to cross real re-convergence, near enough to stay inside the
     distance-vector infinity (16) on every family and size. *)
  let src = 0 in
  let dist0 = Netsim.Topology.bfs_distances topo src in
  let ecc0 = topo_ecc dist0 in
  let want = min ecc0 10 in
  let cands = ref [] in
  Array.iteri (fun v d -> if d = want && v <> src then cands := v :: !cands) dist0;
  let cell_rng = Dessim.Rng.create (seed + (axis * 104_729)) in
  let dst =
    match !cands with [] -> nodes - 1 | l -> Dessim.Rng.pick cell_rng l
  in
  (* Initial convergence must finish before traffic starts, and the failed
     route must re-converge before the oracle reads the tables at the end,
     so both the lead-in and the post-failure window scale with graph reach ×
     protocol pacing (never below the paper's 240 s measurement window). *)
  let dhat = max ecc0 (topo_ecc (Netsim.Topology.bfs_distances topo dst)) in
  let allowance = 30. +. (1.3 *. topo_perhop proto *. float_of_int dhat) in
  let cfg =
    {
      base with
      (* placeholder mesh fields; the run is pinned to [~topology] *)
      C.rows = 3;
      cols = 3;
      degree = 4;
      traffic_start = allowance;
      warmup = allowance +. 10.;
      failure_time = allowance +. 20.;
      sim_end = allowance +. 20. +. Float.max 240. allowance;
      seed;
    }
  in
  (* The BFS differential oracle anchors correctness at quiescence. Bounded
     protocols must drop (not hold) routes at >= 16 hops; at the largest
     sizes the all-pairs probe is spot-checked on a strided destination
     sample to stay inside the wall budget. *)
  let max_metric =
    if proto = "RIP" || proto = "DBF" then
      Some Protocols.Dv_core.default_config.Protocols.Dv_core.infinity_metric
    else None
  in
  let dests =
    if nodes <= 2048 then None
    else
      let stride = nodes / 256 in
      let sample = List.init 256 (fun i -> i * stride) in
      Some (if List.mem dst sample then sample else dst :: sample)
  in
  let mismatches = ref Float.nan in
  let on_quiesce view =
    mismatches :=
      float_of_int (List.length (Check.Oracle.check ?max_metric ?dests view))
  in
  let r = E.run ~topology:topo ~src ~dst ~on_quiesce cfg engine in
  let ratio =
    if r.M.sent = 0 then Float.nan
    else float_of_int r.M.delivered /. float_of_int r.M.sent
  in
  {
    (Cell_result.of_run
       ~extras:
         [
           ("delivery_ratio", ratio);
           ("oracle_mismatches", !mismatches);
           ("edges", float_of_int (Netsim.Topology.edge_count topo));
         ]
       r)
    with
    (* family × node count as the cell key's sweep dimension *)
    Cell_result.degree = axis;
  }

let topo_tasks (sweep : X.sweep) =
  topo_families
  |> List.concat_map (fun (family, idx, _) ->
         sweep.X.degrees
         |> List.concat_map (fun nodes ->
                topo_protocols nodes
                |> List.concat_map (fun engine ->
                       List.init sweep.X.runs (fun i ->
                           {
                             t_protocol = E.name engine;
                             t_degree = topo_axis ~family_idx:idx ~nodes;
                             t_seed = sweep.X.base.C.seed + i;
                             t_run =
                               (fun () ->
                                 topo_cell sweep ~family ~family_idx:idx ~nodes
                                   engine i);
                           }))))
  |> Array.of_list

let render_topo ppf a =
  List.iter
    (fun (_, idx, label) ->
      let keep d = d / 100_000 = idx in
      let relabel d = d mod 100_000 in
      let table metric title unit_label =
        fault_axis_table ~title:(label ^ ": " ^ title) ~unit_label ~metric ~keep
          ~relabel ppf a
      in
      table "delivery_ratio" "delivery ratio during convergence"
        "fraction; rows are node count";
      table "routing_convergence" "routing convergence after the failure"
        "seconds; rows are node count";
      table "ctrl_messages" "control-message load"
        "messages; rows are node count";
      table "oracle_mismatches" "oracle mismatches at quiescence"
        "count; rows are node count")
    topo_families

let topo =
  {
    name = "topo";
    family = "topo";
    title =
      "Topology families: delivery, convergence and message load across \
       mesh/ER/BA/hierarchical at 49-4096 nodes";
    doc =
      "delivery ratio, convergence time and control-message load per \
       topology family and size";
    include_series = false;
    tasks = topo_tasks;
    render = render_topo;
  }

(* ---------- resilience: fast reroute ---------- *)

(* The resilience grid crosses failure schedule x FRR x degree on the
   default corner-to-corner flow: cells reuse the artifact's degree field as
   the axis code [sched_idx * 2000 + frr * 1000 + degree] — and carry the
   same coordinates as self-describing v4 [axes] — so the renderer can slice
   FRR-on against FRR-off per schedule. The mesh degree itself stays in
   3..6, the range where loop-free-alternate coverage changes. *)
let resilience_scheds = [ `Single; `Flap; `Pair; `Surge ]

let resilience_sched_name = function
  | `Single -> "single"
  | `Flap -> "flap"
  | `Pair -> "pair"
  | `Surge -> "surge"

let resilience_sched_idx = function
  | `Single -> 0
  | `Flap -> 1
  | `Pair -> 2
  | `Surge -> 3

let resilience_code sched ~frr degree =
  (resilience_sched_idx sched * 2000) + (if frr then 1000 else 0) + degree

(* [`Single] is the paper's one mid-path failure, never healed. The other
   schedules re-target the flow's {e current} path at each failure instant,
   so every cut hits a link the traffic actually crosses at that moment:
   [`Flap] re-cuts on an 8 s cadence (three times, 4 s down each); [`Pair]
   cuts two path links simultaneously in four 10 s-spaced rounds — two
   concurrent cuts exhaust single-alternate coverage around the cut even on
   richly connected meshes; [`Surge] piles ten overlapping 10 s outages at
   4 s spacing, the sustained-churn regime where even neighbor-caching
   protocols develop transient no-route windows. *)
let resilience_failures (cfg : C.t) sched =
  let path ~at ~heal =
    { R.fail_at = at; target = R.Flow_path 0; heal_after = heal }
  in
  let t0 = cfg.C.failure_time in
  match sched with
  | `Single -> [ path ~at:t0 ~heal:None ]
  | `Flap ->
    List.init 3 (fun i ->
        path ~at:(t0 +. (float_of_int i *. 8.)) ~heal:(Some 4.))
  | `Pair ->
    List.concat
      (List.init 4 (fun i ->
           let t = t0 +. (float_of_int i *. 10.) in
           [ path ~at:t ~heal:(Some 6.); path ~at:t ~heal:(Some 6.) ]))
  | `Surge ->
    List.init 10 (fun i ->
        path ~at:(t0 +. (float_of_int i *. 4.)) ~heal:(Some 10.))

(* Seconds of zero flow delivery from the first failure to sim_end — the
   union of the paper's loss windows across the schedule's failure events,
   measured on the flow's 1 s throughput buckets. *)
let loss_window_seconds (cfg : C.t) (m : M.multi) =
  match m.M.m_flows with
  | [ f ] ->
    let g = f.M.f_throughput in
    let from_bucket =
      match Dessim.Series.bucket_of_time g cfg.C.failure_time with
      | Some b -> b
      | None -> 0
    in
    let count = ref 0 in
    for i = from_bucket to Dessim.Series.buckets g - 1 do
      if Dessim.Series.count g i = 0 then incr count
    done;
    float_of_int !count
  | _ -> Float.nan

let resilience_cell sched ~frr cfg engine =
  let failures = resilience_failures cfg sched in
  let metrics = Obs.Registry.create () in
  let m =
    E.run_multi ~frr ~metrics ~flows:[ R.default_flow ] ~failures cfg engine
  in
  let gauge name =
    match Obs.Registry.lookup metrics name with
    | Some (Obs.Registry.Gauge_value v) -> v
    | Some _ | None -> 0.
  in
  {
    (Cell_result.of_multi
       ~extras:
         [
           ("loss_window_s", loss_window_seconds cfg m);
           ("frr_installs", gauge "frr.installs");
           ("frr_activations", gauge "frr.activations");
           ("frr_forwards", gauge "frr.forwards");
           ("frr_exhausted", gauge "frr.exhausted");
         ]
       ~axes:
         [
           ("schedule", resilience_sched_name sched);
           ("frr", if frr then "on" else "off");
           ("mesh_degree", string_of_int cfg.C.degree);
         ]
       m)
    with
    Cell_result.degree = resilience_code sched ~frr cfg.C.degree;
  }

let resilience_tasks (sweep : X.sweep) =
  E.paper_four
  |> List.concat_map (fun engine ->
         resilience_scheds
         |> List.concat_map (fun sched ->
                [ false; true ]
                |> List.concat_map (fun frr ->
                       sweep.X.degrees
                       |> List.concat_map (fun degree ->
                              List.init sweep.X.runs (fun i ->
                                  let cfg = cfg_of sweep degree i in
                                  {
                                    t_protocol = E.name engine;
                                    t_degree = resilience_code sched ~frr degree;
                                    t_seed = cfg.C.seed;
                                    t_run =
                                      (fun () ->
                                        resilience_cell sched ~frr cfg engine);
                                  })))))
  |> Array.of_list

(* FRR-off and FRR-on columns side by side, per protocol, rows = degree. *)
let resilience_slice (a : Artifact.t) metric ~base =
  List.concat_map
    (fun proto ->
      List.map
        (fun (tag, b) ->
          ( proto ^ "/" ^ tag,
            List.filter_map
              (fun (g : Artifact.aggregate) ->
                if
                  g.Artifact.a_protocol <> proto
                  || g.Artifact.a_degree < b
                  || g.Artifact.a_degree >= b + 1000
                then None
                else
                  Option.map
                    (fun (s : Artifact.stat) ->
                      (g.Artifact.a_degree - b, s.Artifact.mean))
                    (List.assoc_opt metric g.Artifact.a_metrics))
              a.Artifact.aggregates ))
        [ ("off", base); ("on", base + 1000) ])
    (protocols_of a)

let render_resilience ppf (a : Artifact.t) =
  let table ~base ~metric ~title ~unit_label =
    Fmt.pf ppf "%a@.@."
      (Convergence.Report.scalar_table ~title ~unit_label)
      (resilience_slice a metric ~base)
  in
  let sched ~base ~label =
    table ~base ~metric:"drops_no_route"
      ~title:(label ^ ": no-route drops, FRR off vs on")
      ~unit_label:"packets; rows are node degree";
    table ~base ~metric:"drops_ttl"
      ~title:(label ^ ": TTL expirations, FRR off vs on")
      ~unit_label:"packets; rows are node degree";
    table ~base ~metric:"loss_window_s"
      ~title:(label ^ ": loss window after the first failure, FRR off vs on")
      ~unit_label:"seconds at zero delivery; rows are node degree";
    table ~base ~metric:"frr_forwards"
      ~title:(label ^ ": packets rerouted onto backups (FRR-on cells)")
      ~unit_label:"packets; rows are node degree"
  in
  List.iteri
    (fun i s ->
      let label =
        match s with
        | `Single -> "single failure"
        | `Flap -> "flapping link"
        | `Pair -> "simultaneous pair"
        | `Surge -> "failure surge"
      in
      sched ~base:(i * 2000) ~label)
    resilience_scheds

let resilience =
  {
    name = "resilience";
    family = "resilience";
    title =
      "Fast reroute: loss window with and without precomputed loop-free \
       backups, across failure schedules and node degree";
    doc =
      "no-route drops, TTL drops and loss-window duration, FRR on vs off, \
       across single / flap / pair / surge failure schedules";
    include_series = false;
    tasks = resilience_tasks;
    render = render_resilience;
  }

(* ---------- sweep scaling ---------- *)

let ablation_scale ~full (sweep : X.sweep) =
  if full then sweep
  else
    X.scale ~runs:(min 5 sweep.X.runs)
      ~degrees:(List.filter (fun d -> d <= 6) sweep.X.degrees)
      sweep

let sweep_for t ~full sweep =
  match t.family with
  | "paper" | "scenarios" -> sweep
  (* perf sweeps mesh sizes internally; degrees/runs scaling does not apply *)
  | "perf" -> sweep
  (* the topo grid reuses [degrees] as its node-count axis; one seed per
     cell — each cell is a whole large-graph simulation *)
  | "topo" ->
    X.scale ~runs:1
      ~degrees:(if full then [ 49; 256; 1024; 4096 ] else [ 49; 256; 1024 ])
      sweep
  (* the resilience grid crosses schedule x frr x degree, an 8x multiplier
     on every (protocol, degree) pair, so seeds are capped at 5 even in full
     mode; the degree range is pinned to 3..6 in every mode *)
  | "resilience" ->
    X.scale ~runs:(min 5 sweep.X.runs)
      ~degrees:(List.filter (fun d -> d >= 3 && d <= 6) sweep.X.degrees) sweep
  | _ -> ablation_scale ~full sweep

(* The sections whose cells ignore the sweep's [degrees] and [runs], and the
   axis each sweeps instead: scenarios and perf build their cells from the
   sweep's base config alone, and [sweep_for] overwrites both topo axes. *)
let fixed_axis t =
  match t.family with
  | "scenarios" -> Some "one cell per engine at the base degree and seed"
  | "perf" -> Some "mesh sizes of 25, 49 and 100 nodes, one seed each"
  | "topo" -> Some "node counts 49, 256 and 1024 (and 4096 in full mode), one seed each"
  | _ -> None

(* ---------- registry ---------- *)

let all =
  [
    fig3;
    fig4;
    fig5;
    fig6;
    fig7;
    overhead;
    scenarios;
    ablation_mrai;
    ablation_damping;
    ablation_rfd;
    ext_ls;
    ext_multiflow;
    ext_transport;
    faults;
    perf;
    topo;
    resilience;
  ]

let names = List.map (fun s -> s.name) all

let find name = List.find_opt (fun s -> s.name = name) all

let grid ~name ?(title = name) ~engines () =
  {
    name;
    family = name;
    title;
    doc = title;
    include_series = false;
    tasks = (fun sweep -> grid_tasks ~engines sweep);
    render =
      (fun ppf a ->
        scalar_table ~title:"drops (no route)" ~unit_label:"packets"
          ~metric:"drops_no_route" ppf a);
  }
