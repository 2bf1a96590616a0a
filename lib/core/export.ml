let f = Printf.sprintf "%g"

let i = string_of_int

let header =
  [
    "protocol"; "degree"; "seed"; "src"; "dst"; "sent"; "delivered";
    "drops_no_route"; "drops_ttl"; "drops_queue"; "drops_link";
    "looped_delivered"; "looped_dropped"; "ctrl_messages"; "ctrl_bytes";
    "ctrl_lost"; "fwd_convergence"; "routing_convergence"; "transient_paths";
  ]

let flow_row (m : Metrics.multi) (fl : Metrics.flow) =
  [
    m.Metrics.m_protocol; i m.Metrics.m_degree; i m.Metrics.m_seed;
    i fl.Metrics.f_src; i fl.Metrics.f_dst; i fl.Metrics.f_sent;
    i fl.Metrics.f_delivered; i fl.Metrics.f_drops_no_route;
    i fl.Metrics.f_drops_ttl; i fl.Metrics.f_drops_queue;
    i fl.Metrics.f_drops_link; i fl.Metrics.f_looped_delivered;
    i fl.Metrics.f_looped_dropped; i m.Metrics.m_ctrl_messages;
    i m.Metrics.m_ctrl_bytes; i m.Metrics.m_ctrl_lost;
    f fl.Metrics.f_fwd_convergence; f m.Metrics.m_routing_convergence;
    i fl.Metrics.f_transient_paths;
  ]

let run_csv outcomes =
  let line cells = String.concat "," cells ^ "\n" in
  String.concat ""
    (line header
    :: List.concat_map
         (fun (m : Metrics.multi) ->
           List.map (fun fl -> line (flow_row m fl)) m.Metrics.m_flows)
         outcomes)

let to_file csv ~path = Rcutil.Atomic_file.write_string ~path csv
