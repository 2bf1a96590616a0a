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
     [Reference_heap], for random schedule/cancel/step interleavings, and
     for delayed events whose recurring delays ride timing lanes and
     recycle them.
   - the GC: a fired event's closure must become collectable (weak-pointer
     check) once the scheduler recycles its cell.
   - [Reference_link]: the hash-table link the FIFO ring replaced, kept
     verbatim. Random send/fail/restore/run streams must produce the same
     delivered/dropped logs and occupancy counters on both.
   - [Reference_monitor]: the table-based invariant monitor the dense one
     replaced, kept verbatim. Random trace-record streams must produce the
     same violations, counts and in-flight totals on both after every
     record, and the same end-of-run verdict.

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
          (match hs_new.(i) with Some h -> Dessim.Scheduler.cancel s_new h | None -> ());
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
               | Some h -> Dessim.Scheduler.cancel s_new h
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

(* ---------- scheduler vs reference scheduler: timing lanes ---------- *)

(* The cancel property above schedules at absolute times only, so every
   event there goes through the heap. Here every event is delayed, drawn
   from 14 recurring delays in phases: each phase repeats a window of 2 or
   3 adjacent pool entries, and the window moves from phase to phase. The
   lane table fills, the lanes of past phases drain, and later phases'
   delays take them over, while cancels hit events on lanes and on the
   heap. *)
let lane_pool =
  [|
    0.0008; 0.005; 0.01; 0.000416; 0.001216; 0.004256; 0.03; 0.125; 0.25; 0.5;
    1.; 1.5; 2.; 3.;
  |]

(* A phase is (first pool index, window width, pace, one int per push). A
   push's int [k] picks delay [k mod width] of the window, [after] or
   [after_tag_h] by the parity of [k / width], cancels one of the last 17
   events when [k mod 5 = 0], and then steps both schedulers
   [k mod (pace + 1)] times: a slow phase (pace 1) lets the queue and its
   lanes fill, a fast one (pace 4) drains them. Returns whether both fired the same events at the same times,
   and whether more than 8 delays rode a lane: there are at most 8 lanes,
   so some lane then changed its delay. A push rode a lane when it left
   [heap_pushes] unchanged. *)
let run_lane_phases phases =
  let pushes = List.fold_left (fun acc (_, _, _, ks) -> acc + List.length ks) 0 phases in
  let s_new = Dessim.Scheduler.create () in
  let s_ref = Reference_sched.create () in
  let log_new = ref [] and log_ref = ref [] in
  let tag = Dessim.Scheduler.register s_new (fun i -> log_new := i :: !log_new) in
  let hs_new = Array.make (max pushes 1) None in
  let hs_ref = Array.make (max pushes 1) None in
  let laned = Hashtbl.create 16 in
  let same = ref true in
  let next = ref 0 in
  let push (base, width, pace, k) =
    let i = !next in
    incr next;
    let delay = lane_pool.((base + (k mod width)) mod Array.length lane_pool) in
    let h0 = Dessim.Scheduler.heap_pushes s_new in
    hs_new.(i) <-
      Some
        (if (k / width) land 1 = 0 then
           Dessim.Scheduler.after s_new ~delay (fun () -> log_new := i :: !log_new)
         else Dessim.Scheduler.after_tag_h s_new ~delay tag i);
    if Dessim.Scheduler.heap_pushes s_new = h0 then Hashtbl.replace laned delay ();
    hs_ref.(i) <-
      Some
        (Reference_sched.schedule s_ref ~at:(s_ref.Reference_sched.clock +. delay)
           (fun () -> log_ref := i :: !log_ref));
    if k mod 5 = 0 && i > 0 then begin
      let j = i - 1 - (k / 5 mod min i 17) in
      Option.iter (Dessim.Scheduler.cancel s_new) hs_new.(j);
      Option.iter Reference_sched.cancel hs_ref.(j)
    end;
    for _ = 1 to k mod (pace + 1) do
      let fired_new = Dessim.Scheduler.step s_new in
      let fired_ref = Reference_sched.step s_ref in
      if fired_new <> fired_ref || Dessim.Scheduler.now s_new <> s_ref.Reference_sched.clock
      then same := false
    done
  in
  List.iter
    (fun (base, width, pace, ks) -> List.iter (fun k -> push (base, width, pace, k)) ks)
    phases;
  Dessim.Scheduler.run s_new;
  Reference_sched.run s_ref;
  let same =
    !same
    && List.rev !log_new = List.rev !log_ref
    && Dessim.Scheduler.events_processed s_new = s_ref.Reference_sched.fired
    && Dessim.Scheduler.events_skipped s_new = s_ref.Reference_sched.skipped
  in
  (same, Hashtbl.length laned > 8)

let lane_phases_gen =
  QCheck2.Gen.(
    list_size (int_range 6 9)
      (quad (int_range 0 13) (int_range 2 3) (int_range 1 4)
         (no_shrink (list_size (int_range 200 400) (int_range 0 9999)))))

let show_lane_phases =
  QCheck2.Print.(list (quad int int int (list int)))

let scheduler_differential_lanes =
  QCheck2.Test.make
    ~name:"lane scheduler fires like the reference under shifting delays"
    ~count:200 ~print:show_lane_phases lane_phases_gen
    (fun phases -> fst (run_lane_phases phases))

(* The property above only means something if its cases recycle lanes:
   most of 200 cases drawn from a fixed seed must (153 do). A phase's pushes
   do not shrink, so a failing case shrinks by phases in seconds. *)
let test_lane_cases_recycle () =
  let cases =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 30 |]) ~n:200 lane_phases_gen
  in
  let results = List.map run_lane_phases cases in
  let recycled = List.length (List.filter snd results) in
  Alcotest.(check bool) "all cases match the reference" true (List.for_all fst results);
  Alcotest.(check bool)
    (Printf.sprintf "most cases recycle a lane (%d of 200)" recycled)
    true (recycled >= 120)

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

(* ---------- ring link vs reference link ---------- *)

(* Link op streams: sends of a given size in bits (the bool is [~reliable]),
   bursts of reliable sends (a control burst that bypasses the queue cap, so
   hundreds of units can be outstanding at a [fail]), [fail], [restore], and
   running both schedulers [k] ms further. *)
type link_op =
  | L_send of int * bool
  | L_burst of int
  | L_fail
  | L_restore
  | L_run of int

let show_link_op = function
  | L_send (size, reliable) ->
    Printf.sprintf "send %d%s" size (if reliable then " reliable" else "")
  | L_burst n -> Printf.sprintf "burst %d" n
  | L_fail -> "fail"
  | L_restore -> "restore"
  | L_run ms -> Printf.sprintf "run %d ms" ms

type link_event =
  | Got of int * float
  | Lost of int * Netsim.Types.drop_reason * float

(* Drive [ops] through a [Netsim.Link] and a [Reference_link], each on its own
   scheduler, with identical parameters and payloads (the send's index).
   After every op the send results, occupancy counters and clocks must agree
   and both logs must have grown alike; the final logs (payload, reason,
   time, order) must be equal. Logs only grow, so equal final logs and equal
   lengths after every op mean equal logs after every op. Returns the
   reference log, oldest first, for callers that inspect it. *)
let run_link_ops ops =
  let s_new = Dessim.Scheduler.create () and s_ref = Dessim.Scheduler.create () in
  let log_new = ref [] and log_ref = ref [] in
  let n_new = ref 0 and n_ref = ref 0 in
  let record log n s ev =
    log := ev (Dessim.Scheduler.now s) :: !log;
    incr n
  in
  let l_new =
    Netsim.Link.create ~sched:s_new ~bandwidth_bps:1e6 ~prop_delay:0.01
      ~queue_capacity:4
      ~deliver:(fun x -> record log_new n_new s_new (fun t -> Got (x, t)))
      ~dropped:(fun x r -> record log_new n_new s_new (fun t -> Lost (x, r, t)))
      ()
  in
  let l_ref =
    Reference_link.create ~sched:s_ref ~bandwidth_bps:1e6 ~prop_delay:0.01
      ~queue_capacity:4
      ~deliver:(fun x -> record log_ref n_ref s_ref (fun t -> Got (x, t)))
      ~dropped:(fun x r -> record log_ref n_ref s_ref (fun t -> Lost (x, r, t)))
      ()
  in
  let ok = ref true in
  let next_id = ref 0 in
  let send ~reliable size_bits =
    let id = !next_id in
    incr next_id;
    let r_new =
      match Netsim.Link.send l_new ~reliable ~size_bits id with
      | Netsim.Link.Sent -> None
      | Netsim.Link.Rejected r -> Some r
    in
    let r_ref =
      match Reference_link.send l_ref ~reliable ~size_bits id with
      | Reference_link.Sent -> None
      | Reference_link.Rejected r -> Some r
    in
    if r_new <> r_ref then ok := false
  in
  let run_both ?until () =
    Dessim.Scheduler.run ?until s_new;
    Dessim.Scheduler.run ?until s_ref
  in
  let agree () =
    !n_new = !n_ref
    && Dessim.Scheduler.now s_new = Dessim.Scheduler.now s_ref
    && Netsim.Link.is_up l_new = Reference_link.is_up l_ref
    && Netsim.Link.queue_length l_new = Reference_link.queue_length l_ref
    && Netsim.Link.in_flight l_new = Reference_link.in_flight l_ref
    && Netsim.Link.utilization_busy_until l_new
       = Reference_link.utilization_busy_until l_ref
  in
  List.iter
    (fun op ->
      (match op with
      | L_send (size, reliable) -> send ~reliable size
      | L_burst n ->
        for i = 1 to n do
          send ~reliable:true (400 * (1 + (i mod 5)))
        done
      | L_fail ->
        Netsim.Link.fail l_new;
        Reference_link.fail l_ref
      | L_restore ->
        Netsim.Link.restore l_new;
        Reference_link.restore l_ref
      | L_run ms ->
        let until = Dessim.Scheduler.now s_new +. (float_of_int ms /. 1000.) in
        run_both ~until ());
      if not (agree ()) then ok := false)
    ops;
  run_both ();
  (!ok && agree () && !log_new = !log_ref, List.rev !log_ref)

let link_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 8,
        map2
          (fun size reliable -> L_send (size, reliable))
          (int_range 0 12_000) bool );
      (1, map (fun n -> L_burst n) (int_range 1 300));
      (1, return L_fail);
      (1, return L_restore);
      (4, map (fun ms -> L_run ms) (int_range 0 60));
    ]

let link_differential_streams =
  QCheck2.Test.make ~name:"ring link matches the reference link on random streams"
    ~count:300
    ~print:QCheck2.Print.(list show_link_op)
    QCheck2.Gen.(list_size (int_range 0 120) link_op_gen)
    (fun ops -> fst (run_link_ops ops))

(* A reliable burst of 65..300 units, partly transmitted, then a failure: the
   victims outnumber twice the reference table's 32 buckets (and mostly
   twice 64), so the drop order crosses the table's doublings. *)
let link_differential_bursts =
  QCheck2.Test.make
    ~name:"ring link drops a large burst in the reference order" ~count:100
    ~print:QCheck2.Print.(list show_link_op)
    QCheck2.Gen.(
      map3
        (fun prefix k ms ->
          prefix
          @ [ L_burst k; L_run ms; L_fail; L_restore; L_send (800, false) ])
        (list_size (int_range 0 20) link_op_gen)
        (int_range 65 300) (int_range 0 30))
    (fun ops -> fst (run_link_ops ops))

(* Pinned cases for the victim order: more than 64 and more than 128
   outstanding units at a fail, a table grown by an earlier burst that has
   since drained (the bucket count only shrinks at a fail), and one grown
   again after a fail reset it. Drop order in the 129-unit case is not send
   order, so a link that drops in send order fails here. *)
let test_link_victim_order () =
  let cases =
    [
      [ L_burst 65; L_fail ];
      [ L_burst 129; L_run 5; L_fail ];
      [ L_burst 300; L_run 50; L_fail ];
      [ L_burst 200; L_run 10_000; L_burst 10; L_fail ];
      [ L_burst 200; L_fail; L_restore; L_burst 70; L_run 3; L_fail ];
    ]
  in
  List.iteri
    (fun i ops ->
      let same, _ = run_link_ops ops in
      Alcotest.(check bool) (Printf.sprintf "case %d identical" i) true same)
    cases;
  let _, log = run_link_ops [ L_burst 129; L_run 5; L_fail ] in
  let dropped =
    List.filter_map (function Lost (x, _, _) -> Some x | Got _ -> None) log
  in
  Alcotest.(check int) "all 129 dropped" 129 (List.length dropped);
  Alcotest.(check bool) "drop order is not send order" true
    (dropped <> List.sort compare dropped)

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

(* ---------- dense monitor vs reference monitor: random record streams ---------- *)

(* A monitor op. Packet ids come from a small pool (so ids are announced
   twice, terminated twice, forwarded unannounced and announced later) plus
   a few ids past the monitor's initial capacity. [M_hop] follows the
   packet's walk: from where the stream last sent it, to its [choice]-th
   neighbor, carrying the expected TTL plus [skew] (0 is a legal hop), as a
   fast-reroute hop when [frr] — so walks revisit nodes and cross links the
   stream has failed. [M_wild] is an arbitrary hop between any two ids,
   including ids outside the graph: teleports, self-hops, non-edges.
   [M_fail]/[M_heal] act on the link from a packet's current node to its
   [choice]-th neighbor; [M_ctrl] is a control-plane event between [src]
   and either its [choice]-th neighbor or an arbitrary node. *)
type mon_op =
  | M_send of int * int * int
  | M_hop of int * int * int * bool
  | M_wild of int * int * int * int * bool
  | M_deliver of int
  | M_drop of int
  | M_fail of int * int
  | M_heal of int * int
  | M_ctrl of int * int * int * bool

let show_mon_op = function
  | M_send (p, src, dst) -> Printf.sprintf "send %d %d->%d" p src dst
  | M_hop (p, c, skew, frr) ->
    Printf.sprintf "hop %d nbr#%d skew %d%s" p c skew (if frr then " frr" else "")
  | M_wild (p, node, next, ttl, frr) ->
    Printf.sprintf "wild %d %d->%d ttl %d%s" p node next ttl
      (if frr then " frr" else "")
  | M_deliver p -> Printf.sprintf "deliver %d" p
  | M_drop p -> Printf.sprintf "drop %d" p
  | M_fail (p, c) -> Printf.sprintf "fail at %d nbr#%d" p c
  | M_heal (p, c) -> Printf.sprintf "heal at %d nbr#%d" p c
  | M_ctrl (which, src, c, adjacent) ->
    Printf.sprintf "ctrl#%d %d %s%d" which src
      (if adjacent then "nbr#" else "node ")
      c

let mon_initial_ttl = 12

(* Build the record stream [ops] describe on [topo], deterministically. *)
let monitor_events topo ops =
  let n = Netsim.Topology.node_count topo in
  let pos = Hashtbl.create 16 and ttl = Hashtbl.create 16 in
  let here p = Option.value (Hashtbl.find_opt pos p) ~default:(p * 7 mod n) in
  let nbr u c =
    match Netsim.Topology.neighbors topo u with
    | [] -> u
    | l -> List.nth l (c mod List.length l)
  in
  List.map
    (fun op ->
      match op with
      | M_send (pkt, src, dst) ->
        Hashtbl.replace pos pkt src;
        Hashtbl.replace ttl pkt mon_initial_ttl;
        Obs.Event.Packet_sent { flow = 0; pkt; src; dst }
      | M_hop (pkt, c, skew, frr) ->
        let node = here pkt in
        let next_hop = nbr node c in
        let t =
          Option.value (Hashtbl.find_opt ttl pkt) ~default:mon_initial_ttl + skew
        in
        Hashtbl.replace pos pkt next_hop;
        Hashtbl.replace ttl pkt (t - 1);
        if frr then Obs.Event.Frr_forwarded { pkt; node; next_hop; ttl = t }
        else Obs.Event.Packet_forwarded { pkt; node; next_hop; ttl = t }
      | M_wild (pkt, node, next_hop, t, frr) ->
        Hashtbl.replace pos pkt (((next_hop mod n) + n) mod n);
        Hashtbl.replace ttl pkt (t - 1);
        if frr then Obs.Event.Frr_forwarded { pkt; node; next_hop; ttl = t }
        else Obs.Event.Packet_forwarded { pkt; node; next_hop; ttl = t }
      | M_deliver pkt ->
        Obs.Event.Packet_delivered { flow = 0; pkt; delay = 0.1; looped = false }
      | M_drop pkt ->
        Obs.Event.Packet_dropped
          { flow = 0; pkt; reason = Netsim.Types.Ttl_expired; looped = false }
      | M_fail (pkt, c) ->
        let u = here pkt in
        Obs.Event.Link_failed { u; v = nbr u c }
      | M_heal (pkt, c) ->
        let u = here pkt in
        Obs.Event.Link_healed { u = nbr u c; v = u }
      | M_ctrl (which, src, c, adjacent) -> (
        let dst = if adjacent then nbr src c else c mod n in
        match which mod 4 with
        | 0 ->
          Obs.Event.Ctrl_sent
            { proto = "DBF"; src; dst; kind = Obs.Event.Update; bits = 64 }
        | 1 ->
          Obs.Event.Ctrl_received
            { proto = "DBF"; src; dst; kind = Obs.Event.Withdrawal }
        | 2 -> Obs.Event.Rtx_sent { proto = "DBF"; src; dst; seq = 1; attempt = 1 }
        | _ -> Obs.Event.Session_reset { src; dst; epoch = 1 }))
    ops

let mon_violations l =
  List.map
    (fun v ->
      ( Check.Monitor.string_of_kind v.Check.Monitor.v_kind,
        v.Check.Monitor.v_time,
        v.Check.Monitor.v_seq,
        v.Check.Monitor.v_what ))
    l

let ref_violations l =
  List.map
    (fun v ->
      ( Reference_monitor.string_of_kind v.Reference_monitor.v_kind,
        v.Reference_monitor.v_time,
        v.Reference_monitor.v_seq,
        v.Reference_monitor.v_what ))
    l

(* Feed both monitors the stream; after every record the violations (kind,
   time, seq, message), their count and the in-flight total must agree, and
   so must the end-of-run verdict. *)
let run_monitor_ops topo ~initial_ttl ~max_violations ops =
  let m = Check.Monitor.create ?initial_ttl ~max_violations ~topo () in
  let r = Reference_monitor.create ?initial_ttl ~max_violations ~topo () in
  let sink_m = Check.Monitor.sink m and sink_r = Reference_monitor.sink r in
  let agree () =
    Check.Monitor.violation_count m = Reference_monitor.violation_count r
    && Check.Monitor.in_flight m = Reference_monitor.in_flight r
    && mon_violations (Check.Monitor.violations m)
       = ref_violations (Reference_monitor.violations r)
  in
  let ok = ref true in
  List.iteri
    (fun seq event ->
      let record = { Obs.Sink.time = float_of_int seq /. 4.; seq; event } in
      sink_m.Obs.Sink.emit record;
      sink_r.Obs.Sink.emit record;
      if not (agree ()) then ok := false)
    (monitor_events topo ops);
  !ok
  && mon_violations (Check.Monitor.finish m)
     = ref_violations (Reference_monitor.finish r)
  && agree ()

let mon_op_gen ~n =
  let open QCheck2.Gen in
  let pkt = frequency [ (8, int_range 0 11); (1, int_range 250 600) ] in
  let node = int_range 0 (n - 1) in
  let skew = frequency [ (8, return 0); (2, int_range (-2) 2); (1, int_range (-40) 40) ] in
  frequency
    [
      (4, map3 (fun p src dst -> M_send (p, src, dst)) pkt node node);
      ( 12,
        map3
          (fun p c (k, frr) -> M_hop (p, c, k, frr))
          pkt (int_range 0 7)
          (pair skew (frequency [ (3, return false); (2, return true) ])) );
      ( 2,
        map3
          (fun p (a, b) (t, frr) -> M_wild (p, a, b, t, frr))
          pkt
          (pair (int_range (-2) (n + 1)) (int_range (-2) (n + 1)))
          (pair (int_range (-1) 14) bool) );
      (3, map (fun p -> M_deliver p) pkt);
      (2, map (fun p -> M_drop p) pkt);
      (2, map2 (fun p c -> M_fail (p, c)) pkt (int_range 0 7));
      (1, map2 (fun p c -> M_heal (p, c)) pkt (int_range 0 7));
      ( 2,
        map3
          (fun w src (c, adj) -> M_ctrl (w, src, c, adj))
          (int_range 0 3) node
          (pair (int_range 0 (n - 1)) bool) );
    ]

let mon_case_gen ~n =
  QCheck2.Gen.(
    triple
      (opt ~ratio:0.7 (return mon_initial_ttl))
      (frequency [ (4, return 1000); (1, int_range 0 6) ])
      (list_size (int_range 0 200) (mon_op_gen ~n)))

let show_mon_case (initial_ttl, max_violations, ops) =
  Printf.sprintf "initial_ttl=%s max_violations=%d\n%s"
    (match initial_ttl with Some t -> string_of_int t | None -> "none")
    max_violations
    (String.concat "\n" (List.map show_mon_op ops))

let monitor_differential ~name ~count topo =
  QCheck2.Test.make ~name ~count ~print:show_mon_case
    (mon_case_gen ~n:(Netsim.Topology.node_count topo))
    (fun (initial_ttl, max_violations, ops) ->
      run_monitor_ops topo ~initial_ttl ~max_violations ops)

let mesh33 = Netsim.Mesh.generate ~rows:3 ~cols:3 ~degree:4

(* 80 nodes: ids 63..79 take the visited set's exact fallback. *)
let mesh80 = Netsim.Mesh.generate ~rows:8 ~cols:10 ~degree:4

let monitor_differential_mesh33 =
  monitor_differential ~name:"dense monitor matches the reference on mesh33"
    ~count:400 mesh33

let monitor_differential_mesh80 =
  monitor_differential
    ~name:"dense monitor matches the reference on an 80-node mesh" ~count:200
    mesh80

(* Pinned streams for the rarest paths: an id forwarded unannounced, then
   announced, terminated and forwarded again (it resumes its adopted
   position); fast-reroute revisits of nodes past id 62; ids past the
   initial capacity; and a stream that outruns [max_violations]. *)
let test_monitor_pinned () =
  let cases =
    [
      ( mesh33,
        [
          M_hop (3, 0, 0, false);
          M_hop (3, 1, 0, false);
          M_send (3, 4, 5);
          M_hop (3, 2, 0, false);
          M_deliver 3;
          M_hop (3, 0, 0, true);
          M_hop (3, 0, 0, true);
          M_deliver 3;
          M_send (3, 0, 1);
        ] );
      ( mesh80,
        [
          M_send (1, 70, 79);
          M_hop (1, 0, 0, false);
          M_hop (1, 1, 0, true);
          M_hop (1, 0, 0, true);
          M_hop (1, 1, 0, true);
          M_wild (2, 75, 76, 12, true);
          M_wild (2, 76, 75, 11, true);
          M_wild (2, -1, 80, 10, true);
          M_wild (2, 80, -1, 9, true);
          M_drop 1;
        ] );
      ( mesh33,
        [ M_send (500, 0, 8); M_hop (500, 0, 0, false); M_drop 500; M_drop 500 ]
        @ List.init 20 (fun i -> M_wild (i mod 3, i, i, 0, i mod 2 = 0)) );
    ]
  in
  List.iteri
    (fun i (topo, ops) ->
      List.iter
        (fun (initial_ttl, max_violations) ->
          Alcotest.(check bool)
            (Printf.sprintf "case %d, max_violations %d" i max_violations)
            true
            (run_monitor_ops topo ~initial_ttl ~max_violations ops))
        [ (Some mon_initial_ttl, 1000); (None, 1000); (Some mon_initial_ttl, 3) ])
    cases

let test_monitor_negative_id () =
  let m = Check.Monitor.create ~topo:mesh33 () in
  let sink = Check.Monitor.sink m in
  List.iter
    (fun event ->
      Alcotest.check_raises "negative id"
        (Invalid_argument "Check.Monitor: negative packet id -1") (fun () ->
          sink.Obs.Sink.emit { Obs.Sink.time = 0.; seq = 0; event }))
    [
      Obs.Event.Packet_sent { flow = 0; pkt = -1; src = 0; dst = 1 };
      Obs.Event.Packet_forwarded { pkt = -1; node = 0; next_hop = 1; ttl = 9 };
      Obs.Event.Frr_forwarded { pkt = -1; node = 0; next_hop = 1; ttl = 9 };
      Obs.Event.Packet_delivered
        { flow = 0; pkt = -1; delay = 0.1; looped = false };
      Obs.Event.Packet_dropped
        { flow = 0; pkt = -1; reason = Netsim.Types.Ttl_expired; looped = false };
    ]

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
        qsuite [ scheduler_differential_cancels; scheduler_differential_lanes ]
        @ [
            Alcotest.test_case "random lane cases recycle lanes" `Quick
              test_lane_cases_recycle;
            Alcotest.test_case "fired cell does not retain closure" `Quick
              test_scheduler_cell_does_not_retain;
          ] );
      ( "link",
        qsuite [ link_differential_streams; link_differential_bursts ]
        @ [
            Alcotest.test_case "victim order across table doublings" `Quick
              test_link_victim_order;
          ] );
      ("route_table", qsuite [ table_differential ]);
      ( "monitor",
        qsuite [ monitor_differential_mesh33; monitor_differential_mesh80 ]
        @ [
            Alcotest.test_case "pinned streams" `Quick test_monitor_pinned;
            Alcotest.test_case "negative packet id raises" `Quick
              test_monitor_negative_id;
          ] );
    ]
