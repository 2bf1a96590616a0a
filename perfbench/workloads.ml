(* The benchmark's workloads and the pass that runs one of them once.

   A pass is one execution of a workload from its seed: set-up (generate the
   inputs, build the task array, open the cache), then [Driver.run_tasks],
   merge, artifact write and, for the cached workload, the warm re-read. It
   returns what the metrics and the correctness gate need; it prints
   nothing. *)

module X = Convergence.Experiments
module Cfg = Convergence.Config
module S = Campaign.Sections
module D = Campaign.Driver
module A = Campaign.Artifact
module CR = Campaign.Cell_result

type backend = In_process | Proc of int  (** worker processes *)

type prepared = {
  section : S.t;
  sweep : X.sweep;
  tasks : S.task array;
  recipe : string * int * int -> string;  (** what reproduces one cell *)
  hang : (string * int * int) option;  (** the self-test's wedged cell *)
}

type t = {
  name : string;
  backend : backend;  (** how the end-to-end run executes cells *)
  cached : bool;  (** cold pass into a fresh cache, then a warm re-read *)
  prepare : seed:int -> prepared;
  graphs : seed:int -> unit;
      (** for workloads whose cells build their own graphs: the same
          generator calls, made by the traced run to time the net layer *)
  check : CR.t -> string list;  (** every check the cell fails *)
}

let key_string (p, d, s) = Printf.sprintf "%s/%d/%d" p d s

(* ---------- cell checks ---------- *)

let conservation (c : CR.t) =
  let accounted =
    c.CR.delivered + c.CR.drops_no_route + c.CR.drops_ttl + c.CR.drops_queue
    + c.CR.drops_link
  in
  if c.CR.sent >= accounted then []
  else
    [
      Printf.sprintf "conservation: sent %d < delivered + drops %d" c.CR.sent
        accounted;
    ]

let zero_extra name (c : CR.t) =
  match List.assoc_opt name c.CR.extras with
  | Some 0. -> []
  | Some v -> [ Printf.sprintf "%s = %g" name v ]
  | None -> [ name ^ " missing" ]

(* ---------- workloads ---------- *)

let section name =
  match S.find name with
  | Some s -> s
  | None -> failwith ("perfbench: no campaign section " ^ name)

let mesh_sweep ~degrees ~seed =
  { X.degrees; runs = 1; base = Cfg.with_seed seed Cfg.default }

let prepared ?hang ~recipe section sweep tasks =
  { section; sweep; tasks; recipe; hang }

let no_recipe _ = ""

let paper_mesh =
  {
    name = "paper-mesh";
    backend = In_process;
    cached = false;
    prepare =
      (fun ~seed ->
        let s = section "fig3" in
        let sweep = mesh_sweep ~degrees:[ 3; 4; 5; 6; 7; 8 ] ~seed in
        prepared ~recipe:no_recipe s sweep (s.S.tasks sweep));
    graphs =
      (fun ~seed:_ ->
        List.iter
          (fun degree ->
            Measure.span "topology" (fun () ->
                ignore (Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree)))
          [ 3; 4; 5; 6; 7; 8 ]);
    check = conservation;
  }

(* The campaign topo section's 256-node mesh column: the four protocols on
   the 16x16 mesh, each with the BFS oracle at quiescence. The mesh graph is
   the same for every seed (the seed moves the flow and the failed link), so
   the work per run barely depends on the seed; the random families' graphs
   change with the seed and are exercised by checked-churn. *)
let topo_256 =
  {
    name = "topo-256";
    backend = In_process;
    cached = false;
    prepare =
      (fun ~seed ->
        let s = section "topo" in
        let sweep = mesh_sweep ~degrees:[ 256 ] ~seed in
        let tasks =
          List.filter (fun t -> t.S.t_degree = 256) (Array.to_list (s.S.tasks sweep))
        in
        prepared ~recipe:no_recipe s sweep (Array.of_list tasks));
    graphs =
      (fun ~seed:_ ->
        Measure.span "topology" (fun () ->
            ignore (Netsim.Mesh.generate ~rows:16 ~cols:16 ~degree:4)));
    check = (fun c -> conservation c @ zero_extra "oracle_mismatches" c);
  }

let churn_section tasks =
  {
    S.name = "checked-churn";
    family = "perfbench-checked-churn";
    title = "checked churn";
    doc = "fault-injected random-graph scenarios under the four protocols";
    include_series = false;
    tasks = (fun _ -> tasks);
    render = (fun _ _ -> ());
  }

let churn_scenarios ~seed =
  Churn.scenarios_of
    ~topology:(fun rng i ->
      Measure.span "topology" (fun () -> Churn.build_topology rng i))
    seed

let checked_churn =
  {
    name = "checked-churn";
    backend = Proc 2;
    cached = true;
    prepare =
      (fun ~seed ->
        let scs = churn_scenarios ~seed in
        let tasks =
          Churn.tasks ~oracle:(fun f -> Measure.span "oracle" f) scs
        in
        let sweep =
          {
            X.degrees = [];
            runs = Array.length scs;
            base = { Cfg.quick with Cfg.seed; sim_end = Churn.sim_end };
          }
        in
        let recipe (_, d, _) =
          if d >= 0 && d < Array.length scs then scs.(d).Churn.recipe else ""
        in
        prepared ~recipe (churn_section tasks) sweep tasks);
    graphs = (fun ~seed:_ -> ());
    check =
      (fun c ->
        conservation c
        @ zero_extra "oracle_mismatches" c
        @ zero_extra "monitor_violations" c);
  }

(* The failure-accounting self-test: three RIP cells on the quick 5x5 mesh.
   The second is wedged until the watchdog quarantines it; the third has its
   row corrupted so that its conservation check must fail. *)
let selftest =
  {
    name = "selftest";
    backend = In_process;
    cached = false;
    prepare =
      (fun ~seed ->
        let s = S.grid ~name:"selftest" ~engines:[ Convergence.Engine_registry.rip ] () in
        let sweep = { X.degrees = [ 3 ]; runs = 3; base = Cfg.with_seed seed Cfg.quick } in
        let corrupt (t : S.task) =
          {
            t with
            S.t_run =
              (fun () ->
                let c = t.S.t_run () in
                { c with CR.delivered = c.CR.sent + 1 });
          }
        in
        let tasks = Array.mapi (fun i t -> if i = 2 then corrupt t else t) (s.S.tasks sweep) in
        prepared ~hang:(D.task_key tasks.(1)) ~recipe:no_recipe s sweep tasks);
    graphs = (fun ~seed:_ -> ());
    check = conservation;
  }

let all = [ paper_mesh; topo_256; checked_churn ]

let find name = List.find_opt (fun w -> w.name = name) (selftest :: all)

(* ---------- one pass ---------- *)

type pass = {
  setup_s : float;
  wall_s : float;  (** first run_tasks call to the last artifact written *)
  warm_s : float;  (** the warm re-read's share of [wall_s]; 0 if uncached *)
  cpu_s : float;  (** harness and reaped workers, over [wall_s] *)
  cells : CR.t array;  (** the cold pass's cells *)
  quarantined : A.quarantine list;
  timing : A.timing;
  cache_stats : int * int;  (** (hits, misses) over cold and warm passes *)
  gcs : Obs.Prof.gc_delta list;  (** per in-process cell *)
  failures : string list;  (** one line per failing cell or artifact check *)
  failed_cells : int;  (** quarantined or failing a cell check *)
  digest : string;  (** of the merged artifact's canonical form *)
  worker_rss_mb : float;  (** largest worker peak, for the proc backend *)
  harness_rss_mb : float;  (** this process's peak so far, read after the pass *)
}

let git_sha = lazy (A.git_sha ())

let worker_argv w ~seed =
  [| Sys.executable_name; "worker"; w.name; string_of_int seed |]

let cache_context (p : prepared) ~seed =
  {
    Campaign.Cache.git_sha = Lazy.force git_sha;
    family = p.section.S.family;
    mode = "perfbench";
    runs = Some p.sweep.X.runs;
    degrees = None;
    seed = Some seed;
  }

(* The set-up a pass times: inputs from the seed, the task array and, for
   the cached workload, a fresh cache. *)
let setup w ~dir ~seed =
  let p = w.prepare ~seed in
  let cache =
    if w.cached then
      Some
        (Campaign.Cache.open_ ~dir:(Filename.concat dir "cache")
           (cache_context p ~seed))
    else None
  in
  (p, cache)

(* In-process cells run between two minor collections so that each cell's
   allocation count does not depend on where the previous cell left the
   minor heap; the count is then exact and repeats run to run. *)
let instrument gcs (t : S.task) =
  {
    t with
    S.t_run =
      (fun () ->
        Measure.span ~id:(key_string (D.task_key t)) "cell" (fun () ->
            Gc.minor ();
            let c, d =
              Obs.Prof.gc_delta (fun () ->
                  let c = t.S.t_run () in
                  Gc.minor ();
                  c)
            in
            gcs := d :: !gcs;
            c));
  }

let validate_file path =
  match Obs.Json.of_string_opt (In_channel.with_open_bin path In_channel.input_all) with
  | Some j -> A.validate j
  | None -> [ path ^ ": not JSON" ]
  | exception Sys_error e -> [ e ]

let canonical_digest a = Digest.to_hex (Digest.string (A.canonical_string a))

let run_pass w ~dir ~seed ~backend ~time_cache =
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  let t0 = Measure.now () in
  let p, cache = Measure.span "setup" (fun () -> setup w ~dir ~seed) in
  let setup_s = Measure.now () -. t0 in
  let gcs = ref [] in
  let jobs, backend_arg, tasks =
    match backend with
    | In_process -> (1, D.Domains, Array.map (instrument gcs) p.tasks)
    | Proc n -> (n, D.Proc { argv = worker_argv w ~seed }, p.tasks)
  in
  let cell_budget = Option.map (fun _ -> 1.0) p.hang in
  let retries = Option.map (fun _ -> 0) p.hang in
  let run_once path =
    let cells, q, timing =
      Measure.span "run_tasks" (fun () ->
          D.run_tasks ~jobs ~backend:backend_arg ?cache ?cell_budget ?retries
            ?hang:p.hang tasks)
    in
    let art =
      Measure.span "merge" (fun () ->
          D.artifact_of ~section:p.section ~mode:"perfbench" ~timing
            ~quarantined:q p.sweep cells)
    in
    Measure.span "write" (fun () -> A.write ~path art);
    (cells, q, timing, art)
  in
  let cold_path = Filename.concat dir "artifact.json" in
  let warm_path = Filename.concat dir "artifact-warm.json" in
  let cpu0 = Measure.cpu_s () in
  let w0 = Measure.now () in
  let cells, quarantined, timing, art = run_once cold_path in
  let w1 = Measure.now () in
  let warm = if w.cached then Some (run_once warm_path) else None in
  let w2 = Measure.now () in
  let cpu_s = Measure.cpu_s () -. cpu0 in
  let cache_stats =
    match cache with Some c -> Campaign.Cache.stats c | None -> (0, 0)
  in
  (* The traced run times single lookups and stores itself: a lookup of
     every cell in the warm cache and a store of every cell into a second,
     empty one. *)
  (match (time_cache, cache) with
  | true, Some c ->
    let spare =
      Campaign.Cache.open_ ~dir:(Filename.concat dir "cache-stores")
        (cache_context p ~seed)
    in
    Array.iter
      (fun cell ->
        let ((proto, degree, s) as k) = CR.key cell in
        let id = key_string k in
        Measure.span ~id "cache.find" (fun () ->
            ignore (Campaign.Cache.find c ~protocol:proto ~degree ~seed:s));
        Measure.span ~id "cache.store" (fun () -> Campaign.Cache.store spare cell))
      cells
  | _ -> ());
  (* The correctness gate, outside the timed region. *)
  let failures = ref [] and failed_cells = ref 0 in
  let fail_cell key reasons =
    incr failed_cells;
    let recipe = match p.recipe key with "" -> "" | r -> " [" ^ r ^ "]" in
    failures :=
      Printf.sprintf "cell %s: %s%s" (key_string key) (String.concat "; " reasons) recipe
      :: !failures
  in
  Array.iter (fun c -> match w.check c with [] -> () | rs -> fail_cell (CR.key c) rs) cells;
  List.iter
    (fun q -> fail_cell (A.quarantine_key q) [ "quarantined: " ^ q.A.q_error ])
    quarantined;
  let fail_run msg = failures := msg :: !failures in
  let check_artifact label path a =
    List.iter
      (fun e -> fail_run (Printf.sprintf "%s artifact invalid: %s" label e))
      (A.validate (A.to_json a) @ validate_file path)
  in
  check_artifact "merged" cold_path art;
  (match warm with
  | Some (_, _, _, warm_art) ->
    check_artifact "warm" warm_path warm_art;
    if A.canonical_string warm_art <> A.canonical_string art then
      fail_run "warm re-read artifact differs from the cold one"
  | None -> ());
  let worker_rss_mb =
    Array.fold_left
      (fun m c ->
        match List.assoc_opt "vmhwm_mb" c.CR.perf with
        | Some v -> Float.max m v
        | None -> m)
      0. cells
  in
  {
    setup_s;
    wall_s = w2 -. w0;
    warm_s = (if w.cached then w2 -. w1 else 0.);
    cpu_s;
    cells;
    quarantined;
    timing;
    cache_stats;
    gcs = List.rev !gcs;
    failures = List.rev !failures;
    failed_cells = !failed_cells;
    digest = canonical_digest art;
    worker_rss_mb;
    harness_rss_mb = Measure.vmhwm_mb ();
  }

(* One set-up sample: [k] set-ups back to back, timed together, per set-up. *)
let setup_sample w ~dir ~seed ~k =
  Measure.rm_rf dir;
  let t0 = Measure.now () in
  for _ = 1 to k do
    ignore (Sys.opaque_identity (setup w ~dir ~seed))
  done;
  (Measure.now () -. t0) /. float_of_int k

let extra_sum pass name =
  Array.fold_left
    (fun acc c -> acc +. Option.value (List.assoc_opt name c.CR.extras) ~default:0.)
    0. pass.cells

(* Counts that must repeat exactly between passes of one seed, traced or
   not: they are the simulation's own, so a difference means the
   measurement perturbed it. *)
let counts pass =
  let sum f = Array.fold_left (fun acc c -> acc +. f c) 0. pass.cells in
  let extras =
    match pass.cells with
    | [||] -> []
    | cs -> List.map fst cs.(0).CR.extras
  in
  [
    ("cells", float_of_int (Array.length pass.cells));
    ("quarantined", float_of_int (List.length pass.quarantined));
    ("engine.events", sum (fun c -> float_of_int c.CR.events));
    ("proto.ctrl_messages", sum (fun c -> float_of_int c.CR.ctrl_messages));
    ("sent", sum (fun c -> float_of_int c.CR.sent));
    ("delivered", sum (fun c -> float_of_int c.CR.delivered));
  ]
  @ List.map (fun name -> (name, extra_sum pass name)) extras
