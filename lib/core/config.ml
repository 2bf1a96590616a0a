type t = {
  rows : int;
  cols : int;
  degree : int;
  bandwidth_bps : float;
  prop_delay : float;
  queue_capacity : int;
  detection_delay : float;
  data_packet_bytes : int;
  ttl : int;
  send_rate_pps : float;
  traffic_start : float;
  warmup : float;
  failure_time : float;
  sim_end : float;
  seed : int;
}

let default =
  {
    rows = 7;
    cols = 7;
    degree = 4;
    bandwidth_bps = 1e6;
    prop_delay = 0.01;
    queue_capacity = 200;
    detection_delay = 0.5;
    data_packet_bytes = 100;
    ttl = 127;
    send_rate_pps = 200.;
    traffic_start = 350.;
    warmup = 390.;
    failure_time = 400.;
    sim_end = 800.;
    seed = 1;
  }

let quick =
  {
    default with
    rows = 5;
    cols = 5;
    send_rate_pps = 50.;
    traffic_start = 310.;
    warmup = 320.;
    failure_time = 330.;
    sim_end = 460.;
  }

let with_degree degree t = { t with degree }

let with_seed seed t = { t with seed }

let nodes t = t.rows * t.cols

let duration_after_warmup t = t.sim_end -. t.warmup

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  (* Messages naming the value are formatted only on failure: every run
     validates its config. *)
  let* () =
    if t.rows >= 3 && t.cols >= 3 then Ok ()
    else
      Error (Printf.sprintf "mesh must be at least 3x3, not %dx%d" t.rows t.cols)
  in
  let* () =
    if t.degree >= Netsim.Mesh.min_degree && t.degree <= Netsim.Mesh.max_degree
    then Ok ()
    else
      Error
        (Printf.sprintf "degree %d out of range %d..%d" t.degree
           Netsim.Mesh.min_degree Netsim.Mesh.max_degree)
  in
  let* () = check (t.bandwidth_bps > 0.) "bandwidth must be positive" in
  let* () = check (t.prop_delay >= 0.) "propagation delay must be >= 0" in
  let* () = check (t.queue_capacity > 0) "queue capacity must be positive" in
  let* () = check (t.detection_delay >= 0.) "detection delay must be >= 0" in
  let* () = check (t.data_packet_bytes > 0) "packet size must be positive" in
  let* () = check (t.ttl > 0) "ttl must be positive" in
  let* () =
    if t.send_rate_pps > 0. then Ok ()
    else
      Error
        (Printf.sprintf "send rate must be positive, not %g pps" t.send_rate_pps)
  in
  let* () =
    check
      (0. <= t.traffic_start && t.traffic_start <= t.failure_time)
      "need 0 <= traffic_start <= failure_time"
  in
  let* () =
    check (t.warmup <= t.failure_time) "warmup must not exceed failure_time"
  in
  check (t.failure_time < t.sim_end) "failure must precede sim_end"

let pp ppf t =
  Fmt.pf ppf
    "@[<v>mesh %dx%d degree %d; link %.0f bps / %.3f s prop / queue %d;@ \
     detection %.2f s; packets %d B ttl %d; rate %.0f pps;@ traffic %.0f s, \
     warmup %.0f s, failure %.0f s, end %.0f s; seed %d@]"
    t.rows t.cols t.degree t.bandwidth_bps t.prop_delay t.queue_capacity
    t.detection_delay t.data_packet_bytes t.ttl t.send_rate_pps t.traffic_start
    t.warmup t.failure_time t.sim_end t.seed
