let buffer_csv header rows render =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," header);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (render row));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let f = Printf.sprintf "%g"

let i = string_of_int

let run_csv runs =
  buffer_csv
    [
      "protocol"; "degree"; "seed"; "src"; "dst"; "sent"; "delivered";
      "drops_no_route"; "drops_ttl"; "drops_queue"; "drops_link";
      "looped_delivered"; "looped_dropped"; "ctrl_messages"; "ctrl_bytes";
      "ctrl_lost"; "fwd_convergence"; "routing_convergence"; "transient_paths";
    ]
    runs
    (fun (r : Metrics.run) ->
      [
        r.Metrics.protocol; i r.Metrics.degree; i r.Metrics.seed;
        i r.Metrics.src; i r.Metrics.dst; i r.Metrics.sent;
        i r.Metrics.delivered; i r.Metrics.drops_no_route;
        i r.Metrics.drops_ttl; i r.Metrics.drops_queue; i r.Metrics.drops_link;
        i r.Metrics.looped_delivered; i r.Metrics.looped_dropped;
        i r.Metrics.ctrl_messages; i r.Metrics.ctrl_bytes; i r.Metrics.ctrl_lost;
        f r.Metrics.fwd_convergence; f r.Metrics.routing_convergence;
        i r.Metrics.transient_paths;
      ])

let to_file csv ~path = Rcutil.Atomic_file.write_string ~path csv
