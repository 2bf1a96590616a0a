(* Bechamel micro-benchmarks of the simulator primitives: the event heap,
   the scheduler, the RNG, topology generation and search, a link, and the
   profiler's span cost.

   Usage: main.exe

   The rows are pure wall-clock with no deterministic part to archive, so
   they are printed, never written to an artifact. Sweep results (the paper
   figures, the scenario wall-clock table, ablations, extensions, perf, topo
   and resilience) are campaign sections: run them with
   [rcsim campaign SECTION]. *)

let micro_tests () =
  let open Bechamel in
  let heap = Dessim.Int_heap.create () in
  let slot = Dessim.Int_heap.slot () and seq = ref 0 in
  let heap_churn () =
    for i = 0 to 255 do
      Dessim.Int_heap.add heap ~time:(float_of_int (i * 7919 mod 101)) ~seq:i i
    done;
    while not (Dessim.Int_heap.is_empty heap) do
      ignore (Dessim.Int_heap.pop_into heap slot ~seq)
    done
  in
  let scheduler_churn () =
    let s = Dessim.Scheduler.create () in
    for i = 0 to 255 do
      ignore (Dessim.Scheduler.schedule s ~at:(float_of_int (i mod 17)) (fun () -> ()))
    done;
    Dessim.Scheduler.run s
  in
  let rng = Dessim.Rng.create 1 in
  let rng_draws () =
    for _ = 0 to 255 do
      ignore (Dessim.Rng.bits64 rng)
    done
  in
  let mesh_gen () = ignore (Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree:6) in
  let topo = Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree:6 in
  let bfs () = ignore (Netsim.Topology.bfs_distances topo 0) in
  let link_traffic () =
    let sched = Dessim.Scheduler.create () in
    let l =
      Netsim.Link.create ~sched ~bandwidth_bps:1e6 ~prop_delay:0.01
        ~queue_capacity:200
        ~deliver:(fun (_ : int) -> ())
        ~dropped:(fun _ _ -> ())
        ()
    in
    for i = 0 to 63 do
      ignore (Netsim.Link.send l ~size_bits:800 i)
    done;
    Dessim.Scheduler.run sched
  in
  (* The profiler's advertised cost at an instrumentation point: disabled, a
     span is one atomic load and a branch; enabled, two clock reads and the
     accumulator updates. The pair of rows quantifies the no-op claim. *)
  let prof_scope = Obs.Prof.scope "bench.micro" in
  let prof_spans () =
    for _ = 0 to 255 do
      Obs.Prof.enter prof_scope;
      Obs.Prof.exit prof_scope
    done
  in
  let prof_disabled () =
    Obs.Prof.set_enabled false;
    prof_spans ()
  in
  let prof_enabled () =
    Obs.Prof.set_enabled true;
    prof_spans ();
    Obs.Prof.set_enabled false
  in
  Test.make_grouped ~name:"simulator"
    [
      Test.make ~name:"heap: 256 add+pop" (Staged.stage heap_churn);
      Test.make ~name:"scheduler: 256 events" (Staged.stage scheduler_churn);
      Test.make ~name:"rng: 256 draws" (Staged.stage rng_draws);
      Test.make ~name:"mesh: generate 7x7 d6" (Staged.stage mesh_gen);
      Test.make ~name:"topology: bfs 49 nodes" (Staged.stage bfs);
      Test.make ~name:"link: 64 packets" (Staged.stage link_traffic);
      Test.make ~name:"prof: 256 spans, disabled" (Staged.stage prof_disabled);
      Test.make ~name:"prof: 256 spans, enabled" (Staged.stage prof_enabled);
    ]

let () =
  Fmt.pr "routing-convergence micro-benchmarks (bechamel)@.";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ v ] -> v
          | Some _ | None -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, ns) -> Fmt.pr "%-40s %12.1f ns/run@." name ns) rows
