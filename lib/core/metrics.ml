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

let flow_in_flight f = f.f_sent - f.f_delivered - flow_total_drops f

let flow_delivery_ratio f =
  if f.f_sent = 0 then 1.
  else float_of_int f.f_delivered /. float_of_int f.f_sent

let multi_sent m = List.fold_left (fun acc f -> acc + f.f_sent) 0 m.m_flows

let multi_delivered m =
  List.fold_left (fun acc f -> acc + f.f_delivered) 0 m.m_flows

let pp_flow ppf f =
  Fmt.pf ppf
    "@[<v 2>flow %d->%d: sent=%d delivered=%d (%.1f%%) drops[no-route=%d ttl=%d \
     queue=%d link=%d injected=%d] in-flight=%d fwd-conv=%.2fs paths=%d@,\
     loops: delivered-after-loop=%d dropped-after-loop=%d@,pre-failure %a@,\
     final %a%s@]"
    f.f_src f.f_dst f.f_sent f.f_delivered
    (100. *. flow_delivery_ratio f)
    f.f_drops_no_route f.f_drops_ttl f.f_drops_queue f.f_drops_link
    f.f_drops_injected (flow_in_flight f) f.f_fwd_convergence
    f.f_transient_paths f.f_looped_delivered f.f_looped_dropped
    Netsim.Types.pp_path f.f_pre_failure_path Netsim.Types.pp_path
    f.f_final_path
    (if f.f_final_path_complete then "" else " (incomplete)")

let pp_multi ppf m =
  Fmt.pf ppf
    "@[<v>%s degree=%d seed=%d: %d flows, %d failures%a@ routing \
     convergence %.2fs; control msgs=%d bytes=%d lost=%d@ %a@]"
    m.m_protocol m.m_degree m.m_seed (List.length m.m_flows)
    (List.length m.m_failed_links)
    Fmt.(list ~sep:nop (any " " ++ pair ~sep:(any "-") int int))
    m.m_failed_links m.m_routing_convergence m.m_ctrl_messages m.m_ctrl_bytes
    m.m_ctrl_lost
    Fmt.(list ~sep:(any "@ ") pp_flow)
    m.m_flows
