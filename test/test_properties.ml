(* Property-based tests for the engine and net layers.

   Randomness discipline (repo idiom): QCheck generates plain integers —
   seeds, sizes, indices — and every structure under test is built
   deterministically from them via [Dessim.Rng.create], so a failing case
   reproduces from its printed counterexample alone. *)

(* ---------- engine: heap ---------- *)

(* Pop every entry of an [Int_heap] as (time, seq, payload). *)
let drain_heap h =
  let slot = Dessim.Int_heap.slot () and seq = ref 0 in
  let rec go acc =
    if Dessim.Int_heap.is_empty h then List.rev acc
    else
      let v = Dessim.Int_heap.pop_into h slot ~seq in
      go ((slot.Dessim.Int_heap.slot_time, !seq, v) :: acc)
  in
  go []

(* Pop order under mixed inserts: keys (time, seq) come out lexicographically
   nondecreasing, i.e. by time, FIFO within a time. *)
let heap_pop_order =
  QCheck.Test.make ~name:"heap pops (time, seq) in lexicographic order"
    ~count:200
    QCheck.(list (int_bound 50))
    (fun times ->
      let h = Dessim.Int_heap.create () in
      List.iteri
        (fun seq t -> Dessim.Int_heap.add h ~time:(float_of_int t) ~seq seq)
        times;
      let rec increasing prev = function
        | [] -> true
        | (t, seq, _) :: rest -> (t, seq) > prev && increasing (t, seq) rest
      in
      increasing (neg_infinity, -1) (drain_heap h))

let heap_stability =
  QCheck.Test.make
    ~name:"heap is FIFO-stable across equal timestamps" ~count:200
    QCheck.(list (int_bound 5))
    (fun times ->
      (* Many duplicate timestamps; payload = insertion index. Within each
         timestamp, payloads must come out in insertion order. *)
      let h = Dessim.Int_heap.create () in
      List.iteri
        (fun seq t -> Dessim.Int_heap.add h ~time:(float_of_int t) ~seq seq)
        times;
      let by_time = Hashtbl.create 8 in
      List.for_all
        (fun (t, _, payload) ->
          let ok =
            match Hashtbl.find_opt by_time t with
            | Some last -> payload > last
            | None -> true
          in
          Hashtbl.replace by_time t payload;
          ok)
        (drain_heap h))

(* ---------- engine: scheduler ---------- *)

(* Random schedule/cancel interleavings: every surviving event fires exactly
   once, in nondecreasing time with FIFO tie-breaks, and no cancelled event
   ever runs. Events are scheduled up front from integer specs, then a
   deterministically chosen subset is cancelled. *)
let scheduler_insert_cancel =
  QCheck.Test.make
    ~name:"scheduler: cancelled events never fire, the rest fire in order"
    ~count:200
    QCheck.(pair (list (pair (int_bound 20) bool)) small_nat)
    (fun (specs, _salt) ->
      let sched = Dessim.Scheduler.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Dessim.Scheduler.schedule sched ~at:(float_of_int t) (fun () ->
                fired := i :: !fired))
          specs
      in
      List.iteri
        (fun i (_, cancel) -> if cancel then Dessim.Scheduler.cancel (List.nth handles i))
        specs;
      Dessim.Scheduler.run sched;
      let fired = List.rev !fired in
      let expected_survivors =
        List.filteri (fun i _ -> not (snd (List.nth specs i))) specs |> List.length
      in
      List.length fired = expected_survivors
      && List.for_all (fun i -> not (snd (List.nth specs i))) fired
      &&
      (* nondecreasing time, FIFO (by scheduling index) within a time *)
      let keyed = List.map (fun i -> (fst (List.nth specs i), i)) fired in
      List.sort compare keyed = keyed)

(* ---------- engine: rng ---------- *)

let stream n rng = List.init n (fun _ -> Dessim.Rng.bits64 rng)

let rng_same_seed_same_stream =
  QCheck.Test.make ~name:"rng: equal seeds yield equal streams" ~count:200
    QCheck.small_nat (fun seed ->
      stream 16 (Dessim.Rng.create seed) = stream 16 (Dessim.Rng.create seed))

let rng_split_streams_distinct =
  QCheck.Test.make
    ~name:"rng: split streams are distinct from the parent and each other"
    ~count:200 QCheck.small_nat (fun seed ->
      let parent = Dessim.Rng.create seed in
      let a = Dessim.Rng.split parent in
      let b = Dessim.Rng.split parent in
      let sp = stream 16 parent and sa = stream 16 a and sb = stream 16 b in
      sp <> sa && sp <> sb && sa <> sb)

let rng_copy_independent =
  QCheck.Test.make ~name:"rng: a copy replays the original's stream"
    ~count:200 QCheck.small_nat (fun seed ->
      let orig = Dessim.Rng.create seed in
      let copy = Dessim.Rng.copy orig in
      stream 16 orig = stream 16 copy)

(* ---------- net: generated topologies ---------- *)

let mean_degree t =
  2.0
  *. float_of_int (Netsim.Topology.edge_count t)
  /. float_of_int (Netsim.Topology.node_count t)

(* The torus closes the border, so "requested degree" is exact at every
   node — the strongest form of the mean-degree contract. *)
let torus_degree_exact =
  QCheck.Test.make ~name:"torus mesh: every node has the requested degree"
    ~count:60
    QCheck.(triple (5 -- 8) (5 -- 8) (3 -- 8))
    (fun (rows, cols, degree) ->
      let rows = if degree land 1 = 1 && rows land 1 = 1 then rows + 1 else rows in
      let t = Netsim.Mesh.generate_torus ~rows ~cols ~degree in
      Netsim.Topology.is_connected t
      && List.for_all
           (fun v -> Netsim.Topology.degree t v = degree)
           (List.init (Netsim.Topology.node_count t) Fun.id)
      && Float.abs (mean_degree t -. float_of_int degree) = 0.0)

(* Erdos-Renyi with p = 4/(n-1) requests mean degree 4. The +-1 bound is
   exhaustively verified over this exact (n, tseed) space — large n keeps the
   sample deviation plus connectivity stitching inside one hop. *)
let er_connected_mean_degree =
  QCheck.Test.make
    ~name:"erdos-renyi: connected, mean degree within 1 of requested"
    ~count:100
    QCheck.(pair (oneofl [ 150; 175; 200; 225; 250 ]) (int_bound 1999))
    (fun (nodes, tseed) ->
      let p = 4.0 /. float_of_int (nodes - 1) in
      let t = Netsim.Random_topo.erdos_renyi (Dessim.Rng.create tseed) ~nodes ~p in
      Netsim.Topology.is_connected t
      && Float.abs (mean_degree t -. 4.0) <= 1.0)

let waxman_connected =
  QCheck.Test.make ~name:"waxman: always connected" ~count:100
    QCheck.(pair (8 -- 40) (int_bound 1999))
    (fun (nodes, tseed) ->
      Netsim.Topology.is_connected
        (Netsim.Random_topo.waxman (Dessim.Rng.create tseed) ~nodes ~alpha:0.6
           ~beta:0.4))

(* ---------- net: link removal ---------- *)

let er_with_edge tseed =
  let t =
    Netsim.Random_topo.erdos_renyi (Dessim.Rng.create tseed) ~nodes:12 ~p:0.3
  in
  (t, Netsim.Topology.edges t)

let remove_edge_symmetric =
  QCheck.Test.make ~name:"remove_edge is orientation-symmetric" ~count:200
    QCheck.(pair (int_bound 1999) small_nat)
    (fun (tseed, idx) ->
      let t, edges = er_with_edge tseed in
      let u, v = List.nth edges (idx mod List.length edges) in
      Netsim.Topology.edges (Netsim.Topology.remove_edge t u v)
      = Netsim.Topology.edges (Netsim.Topology.remove_edge t v u))

let remove_edge_idempotent =
  QCheck.Test.make ~name:"remove_edge is idempotent" ~count:200
    QCheck.(pair (int_bound 1999) small_nat)
    (fun (tseed, idx) ->
      let t, edges = er_with_edge tseed in
      let u, v = List.nth edges (idx mod List.length edges) in
      let once = Netsim.Topology.remove_edge t u v in
      let twice = Netsim.Topology.remove_edge once u v in
      Netsim.Topology.edges once = Netsim.Topology.edges twice
      && Netsim.Topology.edges once
         = List.filter (fun e -> e <> (min u v, max u v)) edges)

let remove_absent_edge_is_noop =
  QCheck.Test.make ~name:"removing an absent edge returns the graph unchanged"
    ~count:200
    QCheck.(triple (int_bound 1999) (int_bound 11) (int_bound 11))
    (fun (tseed, u, v) ->
      let t, edges = er_with_edge tseed in
      u = v
      || Netsim.Topology.has_edge t u v
      || Netsim.Topology.edges (Netsim.Topology.remove_edge t u v) = edges)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "properties"
    [
      ("heap", qsuite [ heap_pop_order; heap_stability ]);
      ("scheduler", qsuite [ scheduler_insert_cancel ]);
      ( "rng",
        qsuite
          [
            rng_same_seed_same_stream;
            rng_split_streams_distinct;
            rng_copy_independent;
          ] );
      ( "topology generators",
        qsuite [ torus_degree_exact; er_connected_mean_degree; waxman_connected ] );
      ( "link removal",
        qsuite
          [ remove_edge_symmetric; remove_edge_idempotent; remove_absent_edge_is_noop ] );
    ]
