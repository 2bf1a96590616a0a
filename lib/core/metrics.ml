type run = {
  protocol : string;
  degree : int;
  seed : int;
  src : Netsim.Types.node_id;
  dst : Netsim.Types.node_id;
  sent : int;
  delivered : int;
  drops_no_route : int;
  drops_ttl : int;
  drops_queue : int;
  drops_link : int;
  drops_injected : int;
  looped_delivered : int;
  looped_dropped : int;
  ctrl_messages : int;
  ctrl_bytes : int;
  ctrl_lost : int;
  throughput : Dessim.Series.t;
  delay : Dessim.Series.t;
  fwd_convergence : float;
  routing_convergence : float;
  transient_paths : int;
  failed_link : (Netsim.Types.node_id * Netsim.Types.node_id) option;
  pre_failure_path : Netsim.Types.node_id list;
  final_path : Netsim.Types.node_id list;
  final_path_complete : bool;
  sched_events : int;
}

let total_drops r =
  r.drops_no_route + r.drops_ttl + r.drops_queue + r.drops_link
  + r.drops_injected

let in_flight r = r.sent - r.delivered - total_drops r

let conservation_ok r = in_flight r >= 0

let pp_run ppf r =
  Fmt.pf ppf
    "@[<v>%s degree=%d seed=%d %d->%d@ sent=%d delivered=%d drops: \
     no-route=%d ttl=%d queue=%d link=%d injected=%d (in flight %d)@ loops: \
     delivered-after-loop=%d dropped-after-loop=%d@ control: msgs=%d \
     bytes=%d lost=%d@ convergence: forwarding=%.2fs routing=%.2fs transient \
     paths=%d@ failed link=%a@ pre-failure %a@ final %a%s@]"
    r.protocol r.degree r.seed r.src r.dst r.sent r.delivered r.drops_no_route
    r.drops_ttl r.drops_queue r.drops_link r.drops_injected (in_flight r)
    r.looped_delivered
    r.looped_dropped r.ctrl_messages r.ctrl_bytes r.ctrl_lost r.fwd_convergence
    r.routing_convergence r.transient_paths
    Fmt.(option ~none:(any "none") (pair ~sep:(any "-") int int))
    r.failed_link Netsim.Types.pp_path r.pre_failure_path Netsim.Types.pp_path
    r.final_path
    (if r.final_path_complete then "" else " (incomplete)")

type transfer = {
  t_completed : int;
  t_retransmissions : int;
  t_duplicates : int;
  t_completed_at : float option;
  t_goodput : Dessim.Series.t;
}

type flow = {
  f_src : Netsim.Types.node_id;
  f_dst : Netsim.Types.node_id;
  f_sent : int;
  f_delivered : int;
  f_drops_no_route : int;
  f_drops_ttl : int;
  f_drops_queue : int;
  f_drops_link : int;
  f_drops_injected : int;
  f_looped_delivered : int;
  f_looped_dropped : int;
  f_throughput : Dessim.Series.t;
  f_delay : Dessim.Series.t;
  f_fwd_convergence : float;
  f_transient_paths : int;
  f_pre_failure_path : Netsim.Types.node_id list;
  f_final_path : Netsim.Types.node_id list;
  f_final_path_complete : bool;
  f_transfer : transfer option;
}

type multi = {
  m_protocol : string;
  m_degree : int;
  m_seed : int;
  m_flows : flow list;
  m_ctrl_messages : int;
  m_ctrl_bytes : int;
  m_ctrl_lost : int;
  m_routing_convergence : float;
  m_failed_links : (Netsim.Types.node_id * Netsim.Types.node_id) list;
  m_sched_events : int;
}

let flow_total_drops f =
  f.f_drops_no_route + f.f_drops_ttl + f.f_drops_queue + f.f_drops_link
  + f.f_drops_injected

let flow_delivery_ratio f =
  if f.f_sent = 0 then 1.
  else float_of_int f.f_delivered /. float_of_int f.f_sent

let multi_sent m = List.fold_left (fun acc f -> acc + f.f_sent) 0 m.m_flows

let multi_delivered m =
  List.fold_left (fun acc f -> acc + f.f_delivered) 0 m.m_flows

let pp_flow ppf f =
  Fmt.pf ppf
    "flow %d->%d: sent=%d delivered=%d (%.1f%%) drops[no-route=%d ttl=%d \
     queue=%d link=%d injected=%d] fwd-conv=%.2fs paths=%d"
    f.f_src f.f_dst f.f_sent f.f_delivered
    (100. *. flow_delivery_ratio f)
    f.f_drops_no_route f.f_drops_ttl f.f_drops_queue f.f_drops_link
    f.f_drops_injected
    f.f_fwd_convergence f.f_transient_paths

let pp_multi ppf m =
  Fmt.pf ppf
    "@[<v>%s degree=%d seed=%d: %d flows, %d failures %a@ routing \
     convergence %.2fs; control msgs=%d bytes=%d lost=%d@ %a@]"
    m.m_protocol m.m_degree m.m_seed (List.length m.m_flows)
    (List.length m.m_failed_links)
    Fmt.(list ~sep:(any " ") (pair ~sep:(any "-") int int))
    m.m_failed_links m.m_routing_convergence m.m_ctrl_messages m.m_ctrl_bytes
    m.m_ctrl_lost
    Fmt.(list ~sep:(any "@ ") pp_flow)
    m.m_flows

let run_of_multi m =
  match m.m_flows with
  | [ f ] ->
    {
      protocol = m.m_protocol;
      degree = m.m_degree;
      seed = m.m_seed;
      src = f.f_src;
      dst = f.f_dst;
      sent = f.f_sent;
      delivered = f.f_delivered;
      drops_no_route = f.f_drops_no_route;
      drops_ttl = f.f_drops_ttl;
      drops_queue = f.f_drops_queue;
      drops_link = f.f_drops_link;
      drops_injected = f.f_drops_injected;
      looped_delivered = f.f_looped_delivered;
      looped_dropped = f.f_looped_dropped;
      ctrl_messages = m.m_ctrl_messages;
      ctrl_bytes = m.m_ctrl_bytes;
      ctrl_lost = m.m_ctrl_lost;
      throughput = f.f_throughput;
      delay = f.f_delay;
      fwd_convergence = f.f_fwd_convergence;
      routing_convergence = m.m_routing_convergence;
      transient_paths = f.f_transient_paths;
      failed_link = (match m.m_failed_links with l :: _ -> Some l | [] -> None);
      pre_failure_path = f.f_pre_failure_path;
      final_path = f.f_final_path;
      final_path_complete = f.f_final_path_complete;
      sched_events = m.m_sched_events;
    }
  | _ -> invalid_arg "Metrics.run_of_multi: expected exactly one flow"
