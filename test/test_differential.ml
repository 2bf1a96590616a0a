(* Differential tests for the hot-path rewrite: the structure-of-arrays heap
   and the free-list scheduler must be observably indistinguishable from the
   pre-rewrite implementations.

   Three oracles:
   - [Reference_heap]: the old boxed entry-record heap, kept verbatim. Driven
     with the same (time, seq) streams as [Dessim.Int_heap], pop sequences
     must match element for element — on randomized QCheck2 streams (with
     shrinking), on a large seeded soak, and on the exact streams real seed
     scenarios push through the scheduler (captured via the recorder seam).
   - a reference scheduler: the old closure-per-event scheduler rebuilt on
     [Reference_heap], for random schedule/cancel/step interleavings.
   - the GC: a fired event's closure must become collectable (weak-pointer
     check) once the scheduler recycles its cell.

   Randomness discipline (repo idiom): QCheck2 generates plain integers and
   structures are built deterministically from them, so a failing case
   reproduces from its printed counterexample alone. *)

(* ---------- int-payload heap vs reference heap: randomized op streams ---------- *)

(* An op stream: [Some k] adds with time [k /. 4.] (small range forces
   equal-timestamp ties), [None] pops from both heaps and compares. Sequence
   numbers increase monotonically like the scheduler's. Beyond pop order,
   this checks the out-parameter protocol: [peek_key] must surface exactly
   the (time, seq) the following [pop_into] returns, since the scheduler's
   lane merge decides on the peek and then trusts the pop. *)
let run_stream_int ops =
  let h = Dessim.Int_heap.create () in
  let r = Reference_heap.create () in
  let out = Dessim.Int_heap.slot () in
  let pseq = ref (-1) in
  let seq = ref 0 in
  let ok = ref true in
  let pop_both () =
    match Reference_heap.pop r with
    | None ->
      if not (Dessim.Int_heap.is_empty h) then begin
        ok := false;
        Dessim.Int_heap.clear h
      end
    | Some (time, s, payload) ->
      if Dessim.Int_heap.is_empty h then ok := false
      else begin
        if not (Dessim.Int_heap.peek_key h out ~seq:pseq) then ok := false
        else if out.Dessim.Int_heap.slot_time <> time || !pseq <> s then
          ok := false;
        let v = Dessim.Int_heap.pop_into h out ~seq:pseq in
        if out.Dessim.Int_heap.slot_time <> time || !pseq <> s || v <> payload
        then ok := false
      end
  in
  List.iter
    (fun op ->
      match op with
      | Some k ->
        let time = float_of_int k /. 4. in
        Dessim.Int_heap.add h ~time ~seq:!seq !seq;
        Reference_heap.add r ~time ~seq:!seq !seq;
        incr seq
      | None -> pop_both ())
    ops;
  while not (Reference_heap.is_empty r && Dessim.Int_heap.is_empty h) do
    pop_both ()
  done;
  !ok

let int_heap_differential_streams =
  QCheck2.Test.make ~name:"int-payload heap pops exactly like the reference"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 400) (option (int_range 0 30)))
    run_stream_int

let int_heap_differential_fifo =
  QCheck2.Test.make ~name:"int heap equal-timestamp FIFO matches reference"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (option (return 7)))
    run_stream_int

let test_int_heap_soak () =
  let rng = Dessim.Rng.create 4321 in
  let ops =
    List.init 25_000 (fun _ ->
        if Dessim.Rng.float rng 1. < 0.6 then Some (Dessim.Rng.int rng 64)
        else None)
  in
  Alcotest.(check bool) "25k-op int stream identical" true (run_stream_int ops)

(* ---------- heap vs reference heap: real scenario streams ---------- *)

(* Capture the exact (time, seq) add/pop stream a seed scenario pushes
   through the engine's scheduler, then replay it into the reference heap:
   at every pop the reference must surface the same (time, seq). This checks
   the heap under the true workload shape — deep queues, cancellation churn,
   long monotone phases — not just synthetic streams. *)
type op_log = {
  mutable op_kind : Bytes.t;  (* 0 = add, 1 = pop *)
  mutable op_time : float array;
  mutable op_seq : int array;
  mutable op_n : int;
}

let log_create () =
  { op_kind = Bytes.create 1024; op_time = Array.make 1024 0.; op_seq = Array.make 1024 0; op_n = 0 }

let log_push l kind time seq =
  let cap = Array.length l.op_seq in
  if l.op_n = cap then begin
    let kinds = Bytes.create (2 * cap) in
    Bytes.blit l.op_kind 0 kinds 0 cap;
    let times = Array.make (2 * cap) 0. in
    Array.blit l.op_time 0 times 0 cap;
    let seqs = Array.make (2 * cap) 0 in
    Array.blit l.op_seq 0 seqs 0 cap;
    l.op_kind <- kinds;
    l.op_time <- times;
    l.op_seq <- seqs
  end;
  Bytes.unsafe_set l.op_kind l.op_n (Char.chr kind);
  l.op_time.(l.op_n) <- time;
  l.op_seq.(l.op_n) <- seq;
  l.op_n <- l.op_n + 1

let scenario_config ~rows ~seed =
  {
    Convergence.Config.quick with
    rows;
    cols = rows;
    degree = 4;
    send_rate_pps = 5.;
    traffic_start = 30.;
    warmup = 30.;
    failure_time = 35.;
    sim_end = 60.;
    seed;
  }

let test_scenario_streams () =
  let check_one engine ~rows ~faults =
    let log = log_create () in
    let recorder =
      {
        Dessim.Scheduler.on_add = (fun time seq -> log_push log 0 time seq);
        on_pop = (fun time seq _fired -> log_push log 1 time seq);
      }
    in
    let cfg = scenario_config ~rows ~seed:5 in
    let faults_spec =
      if faults then Fault.Spec.control_loss 0.05 else Fault.Spec.none
    in
    Dessim.Scheduler.with_default_recorder recorder (fun () ->
        ignore
          (Convergence.Engine_registry.run ~faults:faults_spec cfg engine));
    let name =
      Printf.sprintf "%s %dx%d%s"
        (Convergence.Engine_registry.name engine)
        rows rows
        (if faults then " +loss" else "")
    in
    Alcotest.(check bool)
      (name ^ " produced events") true (log.op_n > 0);
    (* Replay through the reference heap. *)
    let r = Reference_heap.create () in
    for i = 0 to log.op_n - 1 do
      let time = log.op_time.(i) and seq = log.op_seq.(i) in
      match Char.code (Bytes.get log.op_kind i) with
      | 0 -> Reference_heap.add r ~time ~seq seq
      | _ -> (
        match Reference_heap.pop r with
        | Some (rt, rs, _) when rt = time && rs = seq -> ()
        | Some (rt, rs, _) ->
          Alcotest.failf "%s: op %d popped (%g, %d), reference has (%g, %d)"
            name i time seq rt rs
        | None -> Alcotest.failf "%s: op %d popped on empty reference" name i)
    done
  in
  List.iter
    (fun engine ->
      List.iter
        (fun rows ->
          check_one engine ~rows ~faults:false;
          check_one engine ~rows ~faults:true)
        [ 3; 5 ])
    Convergence.Engine_registry.paper_four

(* ---------- scheduler vs reference scheduler: interleaved cancels ---------- *)

(* The pre-rewrite scheduler, rebuilt on the reference heap: one closure and
   one handle per event, no free list, no tags. *)
module Reference_sched = struct
  type handle = { mutable cancelled : bool }

  type event = { h : handle; fn : unit -> unit }

  type t = {
    queue : event Reference_heap.t;
    mutable clock : float;
    mutable next_seq : int;
    mutable fired : int;
    mutable skipped : int;
  }

  let create () =
    { queue = Reference_heap.create (); clock = 0.; next_seq = 0; fired = 0; skipped = 0 }

  let schedule t ~at fn =
    if at < t.clock then invalid_arg "Reference_sched.schedule";
    let h = { cancelled = false } in
    Reference_heap.add t.queue ~time:at ~seq:t.next_seq { h; fn };
    t.next_seq <- t.next_seq + 1;
    h

  let cancel h = h.cancelled <- true

  let step t =
    match Reference_heap.pop t.queue with
    | None -> false
    | Some (time, _seq, ev) ->
      t.clock <- time;
      if not ev.h.cancelled then begin
        t.fired <- t.fired + 1;
        ev.fn ()
      end
      else t.skipped <- t.skipped + 1;
      true

  let run t = while step t do () done
end

(* Event specs: (time bucket, cancel?). Both schedulers schedule the same
   events appending labels to their logs, cancel the same subset (half of
   them from inside an earlier event, to exercise cancel-after-schedule
   interleaving), run to completion, and must produce identical firing logs
   and identical fired/skipped counters. *)
let run_cancel_scenario specs =
  let n = List.length specs in
  let log_new = ref [] and log_ref = ref [] in
  let s_new = Dessim.Scheduler.create () in
  let s_ref = Reference_sched.create () in
  let hs_new = Array.make (max n 1) None in
  let hs_ref = Array.make (max n 1) None in
  List.iteri
    (fun i (tb, _cancel) ->
      let at = float_of_int tb /. 2. in
      hs_new.(i) <-
        Some (Dessim.Scheduler.schedule s_new ~at (fun () -> log_new := i :: !log_new));
      hs_ref.(i) <-
        Some (Reference_sched.schedule s_ref ~at (fun () -> log_ref := i :: !log_ref)))
    specs;
  (* Cancel the marked subset: even indices immediately, odd ones from inside
     the earliest event (mid-run cancellation). *)
  let cancel_late = ref [] in
  List.iteri
    (fun i (_tb, cancel) ->
      if cancel then
        if i land 1 = 0 then begin
          (match hs_new.(i) with Some h -> Dessim.Scheduler.cancel h | None -> ());
          match hs_ref.(i) with Some h -> Reference_sched.cancel h | None -> ()
        end
        else cancel_late := i :: !cancel_late)
    specs;
  if !cancel_late <> [] then begin
    let late = !cancel_late in
    ignore
      (Dessim.Scheduler.schedule s_new ~at:0. (fun () ->
           List.iter
             (fun i ->
               match hs_new.(i) with
               | Some h -> Dessim.Scheduler.cancel h
               | None -> ())
             late));
    ignore
      (Reference_sched.schedule s_ref ~at:0. (fun () ->
           List.iter
             (fun i ->
               match hs_ref.(i) with
               | Some h -> Reference_sched.cancel h
               | None -> ())
             late))
  end;
  Dessim.Scheduler.run s_new;
  Reference_sched.run s_ref;
  List.rev !log_new = List.rev !log_ref
  && Dessim.Scheduler.events_processed s_new = s_ref.Reference_sched.fired
  && Dessim.Scheduler.events_skipped s_new = s_ref.Reference_sched.skipped

let scheduler_differential_cancels =
  QCheck2.Test.make
    ~name:"free-list scheduler fires like the reference under cancels"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 120) (pair (int_range 0 20) bool))
    run_cancel_scenario

(* ---------- GC retention ---------- *)

let test_scheduler_cell_does_not_retain () =
  (* After a closure event fires, the scheduler's recycled cell must not pin
     the closure's environment. *)
  let s = Dessim.Scheduler.create () in
  let env = ref (Some (Bytes.create 128)) in
  let w = Weak.create 1 in
  (match !env with Some b -> Weak.set w 0 (Some b) | None -> ());
  ignore
    (Dessim.Scheduler.schedule s ~at:1. (fun () ->
         match !env with Some b -> ignore (Bytes.length b) | None -> ()));
  Dessim.Scheduler.run s;
  env := None;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "closure env was collected" true (Weak.get w 0 = None)

(* ---------- dense routing table vs Hashtbl model ---------- *)

(* The hash-table route record the dense [Protocols.Route_table] replaced:
   presence is insertion, metric and next hop are mutable fields. Random op
   streams drive both and every observable query must agree. *)
module Table_model = struct
  type route = { mutable metric : int; mutable next_hop : int }

  type t = (int, route) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let set t ~dst ~metric ~next_hop =
    match Hashtbl.find_opt t dst with
    | Some r ->
      r.metric <- metric;
      r.next_hop <- next_hop
    | None -> Hashtbl.replace t dst { metric; next_hop }

  let set_metric t ~dst ~metric =
    match Hashtbl.find_opt t dst with
    | Some r -> r.metric <- metric
    | None -> Hashtbl.replace t dst { metric; next_hop = -1 }

  let set_next_hop t ~dst ~next_hop =
    match Hashtbl.find_opt t dst with
    | Some r -> r.next_hop <- next_hop
    | None -> ()
    (* [Route_table.set_next_hop] without a prior metric leaves the
       destination absent too: metric stays the absent marker. *)

  let mem t dst = Hashtbl.mem t dst

  let metric t dst =
    match Hashtbl.find_opt t dst with Some r -> r.metric | None -> -1

  let next_hop_id t dst =
    match Hashtbl.find_opt t dst with Some r -> r.next_hop | None -> -1

  let destinations t =
    Hashtbl.fold (fun dst _ acc -> dst :: acc) t [] |> List.sort compare
end

type table_op =
  | Op_set of int * int * int
  | Op_set_metric of int * int
  | Op_set_next_hop of int * int

let table_op_gen =
  let open QCheck2.Gen in
  let dst = int_range 0 40 in
  let metric = int_range 0 16 in
  let nh = int_range (-1) 40 in
  oneof
    [
      map3 (fun d m n -> Op_set (d, m, n)) dst metric nh;
      map2 (fun d m -> Op_set_metric (d, m)) dst metric;
      map2 (fun d n -> Op_set_next_hop (d, n)) dst nh;
    ]

let run_table_ops ops =
  let dense = Protocols.Route_table.create () in
  let model = Table_model.create () in
  List.iter
    (fun op ->
      match op with
      | Op_set (dst, metric, next_hop) ->
        Protocols.Route_table.set dense ~dst ~metric ~next_hop;
        Table_model.set model ~dst ~metric ~next_hop
      | Op_set_metric (dst, metric) ->
        Protocols.Route_table.set_metric dense ~dst ~metric;
        Table_model.set_metric model ~dst ~metric
      | Op_set_next_hop (dst, next_hop) ->
        (* Only meaningful for destinations that exist, mirroring how the
           protocols use it (they always [set] before adjusting a hop). *)
        if Protocols.Route_table.mem dense dst then begin
          Protocols.Route_table.set_next_hop dense ~dst ~next_hop;
          Table_model.set_next_hop model ~dst ~next_hop
        end)
    ops;
  let agree_at dst =
    let mem_d = Protocols.Route_table.mem dense dst in
    mem_d = Table_model.mem model dst
    && Protocols.Route_table.metric dense dst = Table_model.metric model dst
    &&
    if not mem_d then true
    else
      Protocols.Route_table.next_hop_id dense dst
      = Table_model.next_hop_id model dst
      && Protocols.Route_table.next_hop dense dst
         = (let nh = Table_model.next_hop_id model dst in
            if nh < 0 then None else Some nh)
  in
  let all_dsts = List.init 45 Fun.id in
  List.for_all agree_at all_dsts
  && Protocols.Route_table.destinations dense = Table_model.destinations model

let table_differential =
  QCheck2.Test.make
    ~name:"dense route table matches Hashtbl model under random ops"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 200) table_op_gen)
    run_table_ops

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "differential"
    [
      ( "heap",
        qsuite
          [ int_heap_differential_streams; int_heap_differential_fifo ]
        @ [
            Alcotest.test_case "25k-op int-heap soak" `Quick test_int_heap_soak;
            Alcotest.test_case "real scenario streams (4 protocols x 2 sizes x faults)"
              `Slow test_scenario_streams;
          ] );
      ( "scheduler",
        qsuite [ scheduler_differential_cancels ]
        @ [
            Alcotest.test_case "fired cell does not retain closure" `Quick
              test_scheduler_cell_does_not_retain;
          ] );
      ("route_table", qsuite [ table_differential ]);
    ]
