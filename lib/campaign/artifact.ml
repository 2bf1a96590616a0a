(* v3 adds the optional per-cell "perf" object inside timing cells. v4 adds
   the optional self-describing "axes" object on cells and aggregates, used
   by sections whose grid has more dimensions than (protocol, degree). *)
let version = 4

let min_version = 1

let kind = "rcsim-campaign"

type params = {
  mode : string;
  rows : int;
  cols : int;
  degrees : int list;
  runs : int;
  seed : int;
  rate_pps : float;
  warmup : float;
  sim_end : float;
}

type stat = { mean : float; stddev : float }

type aggregate = {
  a_protocol : string;
  a_degree : int;
  a_runs : int;
  a_axes : (string * string) list;
  a_metrics : (string * stat) list;
  a_series : (string * Cell_result.series) list;
}

type cell_timing = {
  ct_protocol : string;
  ct_degree : int;
  ct_seed : int;
  ct_wall_s : float;
  ct_perf : (string * float) list;
      (* machine-speed measurements (ns/event, events/sec, GC promotion);
         empty for sections that do not measure them *)
}

type exec = {
  x_backend : string;
  x_cache_hits : int;
  x_cache_misses : int;
  x_spawns : int;
  x_restarts : int;
  x_worker_cells : int list;
}

type timing = {
  t_jobs : int;
  t_wall_s : float;
  t_exec : exec option;
      (* how the cells were executed (backend, cache traffic, worker
         supervision counters); absent for plain in-process runs, and
         always absent pre-PR-10 — an optional key, not a schema bump *)
  t_cells : cell_timing list;
}

type quarantine = {
  q_protocol : string;
  q_degree : int;
  q_seed : int;
  q_error : string;
  q_attempts : int;
}

type t = {
  section : string;
  git_sha : string;
  params : params;
  cells : Cell_result.t list;
  quarantined : quarantine list;
  aggregates : aggregate list;
  timing : timing option;
  include_series : bool;
}

let quarantine_key q = (q.q_protocol, q.q_degree, q.q_seed)

let params_of_sweep ~mode (sweep : Convergence.Experiments.sweep) =
  let base = sweep.Convergence.Experiments.base in
  {
    mode;
    rows = base.Convergence.Config.rows;
    cols = base.Convergence.Config.cols;
    degrees = sweep.Convergence.Experiments.degrees;
    runs = sweep.Convergence.Experiments.runs;
    seed = base.Convergence.Config.seed;
    rate_pps = base.Convergence.Config.send_rate_pps;
    warmup = base.Convergence.Config.warmup;
    sim_end = base.Convergence.Config.sim_end;
  }

let git_sha () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, sha when sha <> "" -> sha
    | _ -> "unknown"
    | exception _ -> "unknown")

(* ---------- aggregation ---------- *)

let aggregate cells =
  let groups = ref [] (* (protocol, degree) keys in first-appearance order *) in
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (c : Cell_result.t) ->
      let k = (c.Cell_result.protocol, c.Cell_result.degree) in
      if not (Hashtbl.mem by_key k) then begin
        groups := k :: !groups;
        Hashtbl.add by_key k []
      end;
      Hashtbl.replace by_key k (c :: Hashtbl.find by_key k))
    cells;
  let one (protocol, degree) =
    let members = List.rev (Hashtbl.find by_key (protocol, degree)) in
    let n = List.length members in
    let metric_names = List.map fst (Cell_result.metrics (List.hd members)) in
    let a_metrics =
      List.map
        (fun name ->
          let samples =
            List.map
              (fun c -> List.assoc name (Cell_result.metrics c))
              members
          in
          ( name,
            { mean = Dessim.Stat.mean samples; stddev = Dessim.Stat.stddev samples } ))
        metric_names
    in
    let a_series =
      match members with
      | [] | { Cell_result.series = []; _ } :: _ -> []
      | first :: _ ->
        List.map
          (fun (name, (model : Cell_result.series)) ->
            let counts = Array.make (Array.length model.Cell_result.s_counts) 0. in
            let sums = Array.make (Array.length model.Cell_result.s_sums) 0. in
            List.iter
              (fun (c : Cell_result.t) ->
                let s = List.assoc name c.Cell_result.series in
                Array.iteri
                  (fun i v -> counts.(i) <- counts.(i) +. v)
                  s.Cell_result.s_counts;
                Array.iteri
                  (fun i v -> sums.(i) <- sums.(i) +. v)
                  s.Cell_result.s_sums)
              members;
            let k = 1. /. float_of_int n in
            Array.iteri (fun i v -> counts.(i) <- v *. k) counts;
            Array.iteri (fun i v -> sums.(i) <- v *. k) sums;
            ( name,
              {
                Cell_result.s_start = model.Cell_result.s_start;
                s_width = model.Cell_result.s_width;
                s_counts = counts;
                s_sums = sums;
              } ))
          first.Cell_result.series
    in
    (* cells sharing an axis code share their axes by construction, so the
       group's annotation is the first member's *)
    let a_axes =
      match members with [] -> [] | c :: _ -> c.Cell_result.axes
    in
    { a_protocol = protocol; a_degree = degree; a_runs = n; a_axes; a_metrics; a_series }
  in
  List.map one (List.rev !groups)

let build ~section ?git_sha:sha ?timing ?(quarantined = []) ~include_series
    params cells =
  {
    section;
    git_sha = (match sha with Some s -> s | None -> git_sha ());
    params;
    cells;
    quarantined;
    aggregates = aggregate cells;
    timing;
    include_series;
  }

(* ---------- JSON writing ---------- *)

let cell_timing t (c : Cell_result.t) =
  match t.timing with
  | None -> None
  | Some tm ->
    List.find_opt
      (fun ct ->
        ct.ct_protocol = c.Cell_result.protocol
        && ct.ct_degree = c.Cell_result.degree
        && ct.ct_seed = c.Cell_result.seed)
      tm.t_cells

let overall_perf t =
  let events = ref 0. and seconds = ref 0. in
  List.iter
    (fun (c : Cell_result.t) ->
      match cell_timing t c with
      | None -> ()
      | Some ct -> (
        match
          ( List.assoc_opt "events_per_s" ct.ct_perf,
            List.assoc_opt "sched_events" c.Cell_result.extras )
        with
        | Some eps, Some ev
          when Float.is_finite eps && Float.is_finite ev && eps > 0. && ev > 0. ->
          events := !events +. ev;
          seconds := !seconds +. (ev /. eps)
        | _ -> ()))
    t.cells;
  if !seconds > 0. then Some (!events, !seconds) else None

let fnum = Cell_result.fnum

let params_to_json p : Obs.Json.t =
  Obj
    [
      ("mode", String p.mode);
      ("rows", Int p.rows);
      ("cols", Int p.cols);
      ("degrees", List (List.map (fun d -> Obs.Json.Int d) p.degrees));
      ("runs", Int p.runs);
      ("seed", Int p.seed);
      ("rate_pps", fnum p.rate_pps);
      ("warmup", fnum p.warmup);
      ("sim_end", fnum p.sim_end);
    ]

let aggregate_to_json ~include_series a : Obs.Json.t =
  let metrics =
    List.map
      (fun (name, s) ->
        (name, Obs.Json.Obj [ ("mean", fnum s.mean); ("stddev", fnum s.stddev) ]))
      a.a_metrics
  in
  let series =
    match a.a_series with
    | xs when include_series && xs <> [] ->
      [
        ( "series",
          Obs.Json.Obj
            (List.map (fun (k, s) -> (k, Cell_result.series_to_json s)) xs) );
      ]
    | _ -> []
  in
  let axes =
    match a.a_axes with
    | [] -> []
    | xs ->
      [
        ( "axes",
          Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.String v)) xs) );
      ]
  in
  Obj
    ([
       ("protocol", Obs.Json.String a.a_protocol);
       ("degree", Obs.Json.Int a.a_degree);
       ("runs", Obs.Json.Int a.a_runs);
     ]
    @ axes
    @ [ ("metrics", Obs.Json.Obj metrics) ]
    @ series)

let quarantine_to_json q : Obs.Json.t =
  Obj
    [
      ("protocol", String q.q_protocol);
      ("degree", Int q.q_degree);
      ("seed", Int q.q_seed);
      ("error", String q.q_error);
      ("attempts", Int q.q_attempts);
    ]

let exec_to_json x : Obs.Json.t =
  Obj
    [
      ("backend", String x.x_backend);
      ("cache_hits", Int x.x_cache_hits);
      ("cache_misses", Int x.x_cache_misses);
      ("spawns", Int x.x_spawns);
      ("restarts", Int x.x_restarts);
      ("worker_cells", List (List.map (fun c -> Obs.Json.Int c) x.x_worker_cells));
    ]

let timing_to_json t : Obs.Json.t =
  Obj
    ([ ("jobs", Obs.Json.Int t.t_jobs); ("wall_s", fnum t.t_wall_s) ]
    @ (match t.t_exec with
      | None -> []
      | Some x -> [ ("exec", exec_to_json x) ])
    @ [
      ( "cells",
        List
          (List.map
             (fun ct ->
               let perf =
                 match ct.ct_perf with
                 | [] -> []
                 | xs ->
                   [
                     ( "perf",
                       Obs.Json.Obj (List.map (fun (k, v) -> (k, fnum v)) xs)
                     );
                   ]
               in
               Obs.Json.Obj
                 ([
                    ("protocol", Obs.Json.String ct.ct_protocol);
                    ("degree", Obs.Json.Int ct.ct_degree);
                    ("seed", Obs.Json.Int ct.ct_seed);
                    ("wall_s", fnum ct.ct_wall_s);
                  ]
                 @ perf))
             t.t_cells) );
    ])

(* The writer stamps the lowest version whose features the file actually
   uses: a grid without axis annotations keeps byte-identical v3 output, so
   regenerating a pre-v4 artifact still diffs clean. *)
let written_version t =
  if
    List.exists (fun (c : Cell_result.t) -> c.Cell_result.axes <> []) t.cells
    || List.exists (fun a -> a.a_axes <> []) t.aggregates
  then version
  else 3

let to_json_inner ~timing t : Obs.Json.t =
  let base =
    [
      ("schema_version", Obs.Json.Int (written_version t));
      ("kind", Obs.Json.String kind);
      ("section", Obs.Json.String t.section);
      ("git_sha", Obs.Json.String t.git_sha);
      ("params", params_to_json t.params);
      ( "cells",
        Obs.Json.List
          (List.map (Cell_result.to_json ~include_series:t.include_series) t.cells)
      );
      ( "quarantined",
        Obs.Json.List (List.map quarantine_to_json t.quarantined) );
      ( "aggregates",
        Obs.Json.List
          (List.map
             (aggregate_to_json ~include_series:t.include_series)
             t.aggregates) );
    ]
  in
  let timing =
    match (timing, t.timing) with
    | true, Some tg -> [ ("timing", timing_to_json tg) ]
    | _ -> []
  in
  Obj (base @ timing)

let to_json t = to_json_inner ~timing:true t

let to_string t = Obs.Json.to_string (to_json t)

let canonical_string t = Obs.Json.to_string (to_json_inner ~timing:false t)

(* ---------- JSON reading ---------- *)

let float_of_json = Cell_result.float_of_json

let params_of_json j =
  let ( let* ) = Result.bind in
  let need what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "params: missing or mistyped %S" what)
  in
  let str name = Option.bind (Obs.Json.member name j) Obs.Json.to_string_val in
  let int name = Option.bind (Obs.Json.member name j) Obs.Json.to_int in
  let flt name = Option.bind (Obs.Json.member name j) float_of_json in
  let* mode = need "mode" (str "mode") in
  let* rows = need "rows" (int "rows") in
  let* cols = need "cols" (int "cols") in
  let* degrees =
    need "degrees" (Option.bind (Obs.Json.member "degrees" j) Obs.Json.to_int_list)
  in
  let* runs = need "runs" (int "runs") in
  let* seed = need "seed" (int "seed") in
  let* rate_pps = need "rate_pps" (flt "rate_pps") in
  let* warmup = need "warmup" (flt "warmup") in
  let* sim_end = need "sim_end" (flt "sim_end") in
  Ok { mode; rows; cols; degrees; runs; seed; rate_pps; warmup; sim_end }

let stat_of_json j =
  match
    ( Option.bind (Obs.Json.member "mean" j) float_of_json,
      Option.bind (Obs.Json.member "stddev" j) float_of_json )
  with
  | Some mean, Some stddev -> Ok { mean; stddev }
  | _ -> Error "aggregate: malformed stat"

let aggregate_of_json j =
  let ( let* ) = Result.bind in
  let need what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "aggregate: missing or mistyped %S" what)
  in
  let* protocol =
    need "protocol" (Option.bind (Obs.Json.member "protocol" j) Obs.Json.to_string_val)
  in
  let* degree = need "degree" (Option.bind (Obs.Json.member "degree" j) Obs.Json.to_int) in
  let* runs = need "runs" (Option.bind (Obs.Json.member "runs" j) Obs.Json.to_int) in
  let* axes =
    match Obs.Json.member "axes" j with
    | None -> Ok []
    | Some (Obs.Json.Obj fields) ->
      Obs.Json.decode_fields
        (fun k v ->
          match Obs.Json.to_string_val v with
          | Some s -> Ok s
          | None ->
            Error (Printf.sprintf "aggregate: axis %S is not a string" k))
        fields
    | Some _ -> Error "aggregate: axes is not an object"
  in
  let* metrics =
    match Obs.Json.member "metrics" j with
    | Some (Obs.Json.Obj fields) ->
      Obs.Json.decode_fields (fun _ v -> stat_of_json v) fields
    | _ -> Error "aggregate: missing metrics object"
  in
  let* series =
    match Obs.Json.member "series" j with
    | None -> Ok []
    | Some (Obs.Json.Obj fields) ->
      Obs.Json.decode_fields
        (fun k v ->
          match Cell_result.series_of_json v with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "aggregate: series %S is malformed" k))
        fields
    | Some _ -> Error "aggregate: series is not an object"
  in
  Ok
    {
      a_protocol = protocol;
      a_degree = degree;
      a_runs = runs;
      a_axes = axes;
      a_metrics = metrics;
      a_series = series;
    }

let quarantine_of_json j =
  let get_str n = Option.bind (Obs.Json.member n j) Obs.Json.to_string_val in
  let get_int n = Option.bind (Obs.Json.member n j) Obs.Json.to_int in
  match
    ( get_str "protocol",
      get_int "degree",
      get_int "seed",
      get_str "error",
      get_int "attempts" )
  with
  | Some p, Some d, Some s, Some e, Some a when a >= 1 ->
    Ok { q_protocol = p; q_degree = d; q_seed = s; q_error = e; q_attempts = a }
  | Some _, Some _, Some _, Some _, Some a when a < 1 ->
    Error "quarantine entry: attempts must be >= 1"
  | _ -> Error "quarantine entry: missing or mistyped field"

let timing_of_json j =
  let ( let* ) = Result.bind in
  let need what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "timing: missing or mistyped %S" what)
  in
  let* jobs = need "jobs" (Option.bind (Obs.Json.member "jobs" j) Obs.Json.to_int) in
  let* wall_s = need "wall_s" (Option.bind (Obs.Json.member "wall_s" j) float_of_json) in
  let* exec =
    match Obs.Json.member "exec" j with
    | None -> Ok None
    | Some xj -> (
      let str n = Option.bind (Obs.Json.member n xj) Obs.Json.to_string_val in
      let int n = Option.bind (Obs.Json.member n xj) Obs.Json.to_int in
      let worker_cells =
        Option.bind (Obs.Json.member "worker_cells" xj) Obs.Json.to_int_list
      in
      match
        ( str "backend",
          int "cache_hits",
          int "cache_misses",
          int "spawns",
          int "restarts",
          worker_cells )
      with
      | Some b, Some h, Some m, Some sp, Some r, Some wc ->
        Ok
          (Some
             {
               x_backend = b;
               x_cache_hits = h;
               x_cache_misses = m;
               x_spawns = sp;
               x_restarts = r;
               x_worker_cells = wc;
             })
      | _ -> Error "timing: malformed exec block")
  in
  let* cells =
    match Obs.Json.member "cells" j with
    | Some (Obs.Json.List items) ->
      Obs.Json.decode_list
        (fun item ->
          let get_str n = Option.bind (Obs.Json.member n item) Obs.Json.to_string_val in
          let get_int n = Option.bind (Obs.Json.member n item) Obs.Json.to_int in
          let get_flt n = Option.bind (Obs.Json.member n item) float_of_json in
          let* perf =
            match Obs.Json.member "perf" item with
            | None -> Ok []
            | Some (Obs.Json.Obj fields) ->
              Obs.Json.decode_fields
                (fun k v ->
                  match float_of_json v with
                  | Some f -> Ok f
                  | None ->
                    Error
                      (Printf.sprintf "timing: perf entry %S is not a number" k))
                fields
            | Some _ -> Error "timing: perf is not an object"
          in
          match (get_str "protocol", get_int "degree", get_int "seed", get_flt "wall_s") with
          | Some p, Some d, Some s, Some w ->
            Ok
              {
                ct_protocol = p;
                ct_degree = d;
                ct_seed = s;
                ct_wall_s = w;
                ct_perf = perf;
              }
          | _ -> Error "timing: malformed cell entry")
        items
    | _ -> Error "timing: missing cells list"
  in
  Ok { t_jobs = jobs; t_wall_s = wall_s; t_exec = exec; t_cells = cells }

let of_json j =
  let ( let* ) = Result.bind in
  let* schema =
    match Option.bind (Obs.Json.member "schema_version" j) Obs.Json.to_int with
    | Some v when v >= min_version && v <= version -> Ok v
    | Some v ->
      Error
        (Printf.sprintf "unsupported schema_version %d (want %d..%d)" v
           min_version version)
    | None -> Error "missing schema_version"
  in
  let* () =
    match Option.bind (Obs.Json.member "kind" j) Obs.Json.to_string_val with
    | Some k when k = kind -> Ok ()
    | Some k -> Error (Printf.sprintf "kind %S is not %S" k kind)
    | None -> Error "missing kind"
  in
  let* section =
    match Option.bind (Obs.Json.member "section" j) Obs.Json.to_string_val with
    | Some s -> Ok s
    | None -> Error "missing section"
  in
  let* sha =
    match Option.bind (Obs.Json.member "git_sha" j) Obs.Json.to_string_val with
    | Some s -> Ok s
    | None -> Error "missing git_sha"
  in
  let* params =
    match Obs.Json.member "params" j with
    | Some p -> params_of_json p
    | None -> Error "missing params"
  in
  let* cells =
    match Obs.Json.member "cells" j with
    | Some (Obs.Json.List items) -> Obs.Json.decode_list Cell_result.of_json items
    | _ -> Error "missing cells list"
  in
  let* quarantined =
    match (Obs.Json.member "quarantined" j, schema) with
    | None, 1 -> Ok []  (* v1 predates graceful degradation *)
    | None, _ -> Error "schema v2: missing quarantined list"
    | Some (Obs.Json.List items), _ ->
      Obs.Json.decode_list quarantine_of_json items
    | Some _, _ -> Error "quarantined is not a list"
  in
  let* aggregates =
    match Obs.Json.member "aggregates" j with
    | Some (Obs.Json.List items) -> Obs.Json.decode_list aggregate_of_json items
    | _ -> Error "missing aggregates list"
  in
  let* timing =
    match Obs.Json.member "timing" j with
    | None -> Ok None
    | Some tj ->
      let* t = timing_of_json tj in
      Ok (Some t)
  in
  let include_series =
    List.exists (fun (c : Cell_result.t) -> c.Cell_result.series <> []) cells
  in
  Ok
    {
      section;
      git_sha = sha;
      params;
      cells;
      quarantined;
      aggregates;
      timing;
      include_series;
    }

(* ---------- validation ---------- *)

let validate j =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let schema =
    match Option.bind (Obs.Json.member "schema_version" j) Obs.Json.to_int with
    | Some v when v >= min_version && v <= version -> v
    | Some v ->
      err "schema_version is %d, expected %d..%d" v min_version version;
      version
    | None ->
      err "missing or mistyped schema_version";
      version
  in
  (match Option.bind (Obs.Json.member "kind" j) Obs.Json.to_string_val with
  | Some k when k = kind -> ()
  | Some k -> err "kind is %S, expected %S" k kind
  | None -> err "missing or mistyped kind");
  (match Option.bind (Obs.Json.member "section" j) Obs.Json.to_string_val with
  | Some _ -> ()
  | None -> err "missing or mistyped section");
  (match Option.bind (Obs.Json.member "git_sha" j) Obs.Json.to_string_val with
  | Some _ -> ()
  | None -> err "missing or mistyped git_sha");
  (match Obs.Json.member "params" j with
  | Some p -> ( match params_of_json p with Ok _ -> () | Error e -> err "%s" e)
  | None -> err "missing params");
  let cell_keys = Hashtbl.create 64 in
  (match Obs.Json.member "cells" j with
  | Some (Obs.Json.List items) ->
    List.iteri
      (fun i item ->
        match Cell_result.of_json item with
        | Ok c ->
          let k = Cell_result.key c in
          if Hashtbl.mem cell_keys k then
            err "cells[%d]: duplicate cell key (%s, %d, %d)" i
              c.Cell_result.protocol c.Cell_result.degree c.Cell_result.seed
          else
            Hashtbl.add cell_keys k ()
        | Error e -> err "cells[%d]: %s" i e)
      items
  | Some _ -> err "cells is not a list"
  | None -> err "missing cells");
  (match (Obs.Json.member "quarantined" j, schema) with
  | None, 1 -> ()
  | None, _ -> err "schema v%d requires a quarantined list" schema
  | Some (Obs.Json.List items), _ ->
    let qkeys = Hashtbl.create 8 in
    List.iteri
      (fun i item ->
        match quarantine_of_json item with
        | Ok q ->
          let k = quarantine_key q in
          if Hashtbl.mem qkeys k then
            err "quarantined[%d]: duplicate quarantine key (%s, %d, %d)" i
              q.q_protocol q.q_degree q.q_seed
          else Hashtbl.add qkeys k ();
          if Hashtbl.mem cell_keys k then
            err
              "quarantined[%d]: cell (%s, %d, %d) is both completed and \
               quarantined"
              i q.q_protocol q.q_degree q.q_seed
        | Error e -> err "quarantined[%d]: %s" i e)
      items
  | Some _, _ -> err "quarantined is not a list");
  (match Obs.Json.member "aggregates" j with
  | Some (Obs.Json.List items) ->
    List.iteri
      (fun i item ->
        match aggregate_of_json item with
        | Ok a ->
          let members =
            Hashtbl.fold
              (fun (p, d, _) () n ->
                if p = a.a_protocol && d = a.a_degree then n + 1 else n)
              cell_keys 0
          in
          if members <> a.a_runs then
            err "aggregates[%d]: (%s, degree %d) claims %d runs but has %d cells"
              i a.a_protocol a.a_degree a.a_runs members
        | Error e -> err "aggregates[%d]: %s" i e)
      items
  | Some _ -> err "aggregates is not a list"
  | None -> err "missing aggregates");
  (match Obs.Json.member "timing" j with
  | None -> ()
  | Some tj -> ( match timing_of_json tj with Ok _ -> () | Error e -> err "%s" e));
  List.rev !errors

(* ---------- files ---------- *)

let write ~path t =
  Rcutil.Atomic_file.write ~path (fun oc ->
      output_string oc (to_string t);
      output_char oc '\n')

let read ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match Obs.Json.of_string_opt (String.trim contents) with
    | None -> Error (Printf.sprintf "%s: not valid JSON" path)
    | Some j -> (
      match of_json j with
      | Ok t -> Ok t
      | Error e -> Error (Printf.sprintf "%s: %s" path e)))
