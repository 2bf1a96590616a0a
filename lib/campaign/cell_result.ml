type series = {
  s_start : float;
  s_width : float;
  s_counts : float array;
  s_sums : float array;
}

type t = {
  protocol : string;
  degree : int;
  seed : int;
  sent : int;
  delivered : int;
  drops_no_route : int;
  drops_ttl : int;
  drops_queue : int;
  drops_link : int;
  looped_delivered : int;
  looped_dropped : int;
  ctrl_messages : int;
  ctrl_bytes : int;
  fwd_convergence : float;
  routing_convergence : float;
  transient_paths : int;
  extras : (string * float) list;
  axes : (string * string) list;
  series : (string * series) list;
  wall_s : float;
  perf : (string * float) list;
  events : int;
}

let of_multi ?(extras = []) ?(axes = []) ?(series = [])
    (m : Convergence.Metrics.multi) =
  let flows = m.Convergence.Metrics.m_flows in
  let sum f = List.fold_left (fun acc fl -> acc + f fl) 0 flows in
  let mean f = Dessim.Stat.mean (List.map f flows) in
  {
    protocol = m.Convergence.Metrics.m_protocol;
    degree = m.Convergence.Metrics.m_degree;
    seed = m.Convergence.Metrics.m_seed;
    sent = Convergence.Metrics.multi_sent m;
    delivered = Convergence.Metrics.multi_delivered m;
    drops_no_route = sum (fun f -> f.Convergence.Metrics.f_drops_no_route);
    drops_ttl = sum (fun f -> f.Convergence.Metrics.f_drops_ttl);
    drops_queue = sum (fun f -> f.Convergence.Metrics.f_drops_queue);
    drops_link = sum (fun f -> f.Convergence.Metrics.f_drops_link);
    looped_delivered = sum (fun f -> f.Convergence.Metrics.f_looped_delivered);
    looped_dropped = sum (fun f -> f.Convergence.Metrics.f_looped_dropped);
    ctrl_messages = m.Convergence.Metrics.m_ctrl_messages;
    ctrl_bytes = m.Convergence.Metrics.m_ctrl_bytes;
    fwd_convergence = mean (fun f -> f.Convergence.Metrics.f_fwd_convergence);
    routing_convergence = m.Convergence.Metrics.m_routing_convergence;
    transient_paths = sum (fun f -> f.Convergence.Metrics.f_transient_paths);
    extras;
    axes;
    series;
    wall_s = 0.;
    perf = [];
    events = m.Convergence.Metrics.m_sched_events;
  }

let metrics t =
  [
    ("sent", float_of_int t.sent);
    ("delivered", float_of_int t.delivered);
    ("drops_no_route", float_of_int t.drops_no_route);
    ("drops_ttl", float_of_int t.drops_ttl);
    ("drops_queue", float_of_int t.drops_queue);
    ("drops_link", float_of_int t.drops_link);
    ("looped_delivered", float_of_int t.looped_delivered);
    ("looped_dropped", float_of_int t.looped_dropped);
    ("ctrl_messages", float_of_int t.ctrl_messages);
    ("ctrl_bytes", float_of_int t.ctrl_bytes);
    ("fwd_convergence", t.fwd_convergence);
    ("routing_convergence", t.routing_convergence);
    ("transient_paths", float_of_int t.transient_paths);
  ]
  @ t.extras

let key t = (t.protocol, t.degree, t.seed)

let windowed ~warmup ~lo ~hi (s : Dessim.Series.t) =
  let buckets = Dessim.Series.buckets s in
  let indices = ref [] in
  for i = buckets - 1 downto 0 do
    let t = Dessim.Series.time_of_bucket s i -. warmup in
    if t >= lo && t <= hi then indices := i :: !indices
  done;
  match !indices with
  | [] -> { s_start = lo; s_width = Dessim.Series.width s; s_counts = [||]; s_sums = [||] }
  | first :: _ as idx ->
    {
      s_start = Dessim.Series.time_of_bucket s first -. warmup;
      s_width = Dessim.Series.width s;
      s_counts =
        Array.of_list (List.map (fun i -> Dessim.Series.frac_count s i) idx);
      s_sums = Array.of_list (List.map (fun i -> Dessim.Series.sum s i) idx);
    }

(* ---------- JSON ---------- *)

(* Non-finite floats have no JSON literal; [Obs.Json] writes them as [null]
   and we read [null] back as [nan]. *)
let fnum f : Obs.Json.t = if Float.is_finite f then Float f else Null

let float_of_json = function
  | Obs.Json.Null -> Some Float.nan
  | j -> Obs.Json.to_float j

let series_to_json s : Obs.Json.t =
  Obj
    [
      ("start", fnum s.s_start);
      ("width", fnum s.s_width);
      ("counts", List (Array.to_list (Array.map fnum s.s_counts)));
      ("sums", List (Array.to_list (Array.map fnum s.s_sums)));
    ]

let series_of_json j =
  let ( let* ) = Option.bind in
  let* start = Option.bind (Obs.Json.member "start" j) float_of_json in
  let* width = Option.bind (Obs.Json.member "width" j) float_of_json in
  let floats = function
    | Obs.Json.List l ->
      let vs = List.filter_map float_of_json l in
      if List.length vs = List.length l then Some (Array.of_list vs) else None
    | _ -> None
  in
  let* counts = Option.bind (Obs.Json.member "counts" j) floats in
  let* sums = Option.bind (Obs.Json.member "sums" j) floats in
  if Array.length counts <> Array.length sums then None
  else Some { s_start = start; s_width = width; s_counts = counts; s_sums = sums }

let to_json ~include_series t : Obs.Json.t =
  let base =
    [
      ("protocol", Obs.Json.String t.protocol);
      ("degree", Obs.Json.Int t.degree);
      ("seed", Obs.Json.Int t.seed);
      ("sent", Obs.Json.Int t.sent);
      ("delivered", Obs.Json.Int t.delivered);
      ("drops_no_route", Obs.Json.Int t.drops_no_route);
      ("drops_ttl", Obs.Json.Int t.drops_ttl);
      ("drops_queue", Obs.Json.Int t.drops_queue);
      ("drops_link", Obs.Json.Int t.drops_link);
      ("looped_delivered", Obs.Json.Int t.looped_delivered);
      ("looped_dropped", Obs.Json.Int t.looped_dropped);
      ("ctrl_messages", Obs.Json.Int t.ctrl_messages);
      ("ctrl_bytes", Obs.Json.Int t.ctrl_bytes);
      ("fwd_convergence", fnum t.fwd_convergence);
      ("routing_convergence", fnum t.routing_convergence);
      ("transient_paths", Obs.Json.Int t.transient_paths);
    ]
  in
  let extras =
    match t.extras with
    | [] -> []
    | xs -> [ ("extras", Obs.Json.Obj (List.map (fun (k, v) -> (k, fnum v)) xs)) ]
  in
  let axes =
    match t.axes with
    | [] -> []
    | xs ->
      [
        ( "axes",
          Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.String v)) xs) );
      ]
  in
  let series =
    match t.series with
    | xs when include_series && xs <> [] ->
      [ ("series", Obs.Json.Obj (List.map (fun (k, s) -> (k, series_to_json s)) xs)) ]
    | _ -> []
  in
  Obj (base @ extras @ axes @ series)

let need what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "cell: missing or mistyped %S" what)

let numbers ~what fields =
  Obs.Json.decode_fields
    (fun k v ->
      match float_of_json v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "cell: %s %S is not a number" what k))
    fields

let of_json j =
  let str name = Option.bind (Obs.Json.member name j) Obs.Json.to_string_val in
  let int name = Option.bind (Obs.Json.member name j) Obs.Json.to_int in
  let flt name = Option.bind (Obs.Json.member name j) float_of_json in
  let ( let* ) = Result.bind in
  let* protocol = need "protocol" (str "protocol") in
  let* degree = need "degree" (int "degree") in
  let* seed = need "seed" (int "seed") in
  let* sent = need "sent" (int "sent") in
  let* delivered = need "delivered" (int "delivered") in
  let* drops_no_route = need "drops_no_route" (int "drops_no_route") in
  let* drops_ttl = need "drops_ttl" (int "drops_ttl") in
  let* drops_queue = need "drops_queue" (int "drops_queue") in
  let* drops_link = need "drops_link" (int "drops_link") in
  let* looped_delivered = need "looped_delivered" (int "looped_delivered") in
  let* looped_dropped = need "looped_dropped" (int "looped_dropped") in
  let* ctrl_messages = need "ctrl_messages" (int "ctrl_messages") in
  let* ctrl_bytes = need "ctrl_bytes" (int "ctrl_bytes") in
  let* fwd_convergence = need "fwd_convergence" (flt "fwd_convergence") in
  let* routing_convergence = need "routing_convergence" (flt "routing_convergence") in
  let* transient_paths = need "transient_paths" (int "transient_paths") in
  let* extras =
    match Obs.Json.member "extras" j with
    | None -> Ok []
    | Some (Obs.Json.Obj fields) -> numbers ~what:"extra" fields
    | Some _ -> Error "cell: extras is not an object"
  in
  let* axes =
    match Obs.Json.member "axes" j with
    | None -> Ok []
    | Some (Obs.Json.Obj fields) ->
      Obs.Json.decode_fields
        (fun k v ->
          match Obs.Json.to_string_val v with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "cell: axis %S is not a string" k))
        fields
    | Some _ -> Error "cell: axes is not an object"
  in
  let* series =
    match Obs.Json.member "series" j with
    | None -> Ok []
    | Some (Obs.Json.Obj fields) ->
      Obs.Json.decode_fields
        (fun k v ->
          match series_of_json v with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "cell: series %S is malformed" k))
        fields
    | Some _ -> Error "cell: series is not an object"
  in
  Ok
    {
      protocol;
      degree;
      seed;
      sent;
      delivered;
      drops_no_route;
      drops_ttl;
      drops_queue;
      drops_link;
      looped_delivered;
      looped_dropped;
      ctrl_messages;
      ctrl_bytes;
      fwd_convergence;
      routing_convergence;
      transient_paths;
      extras;
      axes;
      series;
      wall_s = 0.;
      perf = [];
      events = 0;
    }

(* The row never serializes the transient fields, so whatever carries a
   finished cell beyond this process (a cache entry, a worker's pipe record)
   writes them beside it. *)
let envelope_fields t =
  [
    ("wall_s", fnum t.wall_s);
    ("events", Obs.Json.Int t.events);
    ("perf", Obs.Json.Obj (List.map (fun (k, v) -> (k, fnum v)) t.perf));
    ("cell", to_json ~include_series:true t);
  ]

let of_envelope j =
  let ( let* ) = Result.bind in
  let* wall_s =
    need "wall_s" (Option.bind (Obs.Json.member "wall_s" j) float_of_json)
  in
  let* events =
    need "events" (Option.bind (Obs.Json.member "events" j) Obs.Json.to_int)
  in
  let* perf =
    match Obs.Json.member "perf" j with
    | Some (Obs.Json.Obj fields) -> numbers ~what:"perf" fields
    | _ -> Error "cell: perf is not an object"
  in
  let* row = need "cell" (Obs.Json.member "cell" j) in
  let* cell = of_json row in
  Ok { cell with wall_s; events; perf }
