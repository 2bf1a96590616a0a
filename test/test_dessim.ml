(* Tests for the discrete-event engine: heap ordering, scheduler semantics,
   RNG determinism, statistics, and time series. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Heap ---------- *)

(* Drain an [Int_heap] into its (time, seq, payload) pop sequence. *)
let drain h =
  let slot = Dessim.Int_heap.slot () and seq = ref 0 in
  let rec go acc =
    if Dessim.Int_heap.is_empty h then List.rev acc
    else
      let v = Dessim.Int_heap.pop_into h slot ~seq in
      go ((slot.Dessim.Int_heap.slot_time, !seq, v) :: acc)
  in
  go []

let test_heap_empty () =
  let h = Dessim.Int_heap.create () in
  Alcotest.(check bool) "empty" true (Dessim.Int_heap.is_empty h);
  Alcotest.(check int) "length" 0 (Dessim.Int_heap.length h);
  Alcotest.(check bool) "peek none" false
    (Dessim.Int_heap.peek_time h (Dessim.Int_heap.slot ()));
  Alcotest.check_raises "pop raises" (Invalid_argument "Int_heap.pop_into: empty heap")
    (fun () ->
      ignore (Dessim.Int_heap.pop_into h (Dessim.Int_heap.slot ()) ~seq:(ref 0)))

let test_heap_order () =
  let h = Dessim.Int_heap.create () in
  Dessim.Int_heap.add h ~time:3. ~seq:0 30;
  Dessim.Int_heap.add h ~time:1. ~seq:1 10;
  Dessim.Int_heap.add h ~time:2. ~seq:2 20;
  let order = List.map (fun (_, _, x) -> x) (drain h) in
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] order

let test_heap_fifo_ties () =
  let h = Dessim.Int_heap.create () in
  List.iteri (fun i x -> Dessim.Int_heap.add h ~time:5. ~seq:i x) [ 7; 8; 9 ];
  let order = List.map (fun (_, _, x) -> x) (drain h) in
  Alcotest.(check (list int)) "seq breaks ties" [ 7; 8; 9 ] order

let test_heap_min_does_not_remove () =
  let h = Dessim.Int_heap.create () in
  Dessim.Int_heap.add h ~time:1. ~seq:0 1;
  ignore (Dessim.Int_heap.peek_time h (Dessim.Int_heap.slot ()));
  Alcotest.(check int) "still there" 1 (Dessim.Int_heap.length h)

let test_heap_clear () =
  let h = Dessim.Int_heap.create () in
  for i = 0 to 99 do
    Dessim.Int_heap.add h ~time:(float_of_int i) ~seq:i i
  done;
  Dessim.Int_heap.clear h;
  Alcotest.(check int) "cleared" 0 (Dessim.Int_heap.length h)

let test_heap_interleaved () =
  let h = Dessim.Int_heap.create () in
  let slot = Dessim.Int_heap.slot () and seq = ref 0 in
  let pop () = Dessim.Int_heap.pop_into h slot ~seq in
  Dessim.Int_heap.add h ~time:10. ~seq:0 10;
  Dessim.Int_heap.add h ~time:5. ~seq:1 5;
  Alcotest.(check int) "first pop" 5 (pop ());
  check_float "first pop time" 5. slot.Dessim.Int_heap.slot_time;
  Dessim.Int_heap.add h ~time:1. ~seq:2 1;
  Alcotest.(check int) "second pop" 1 (pop ());
  Alcotest.(check int) "third pop" 10 (pop ())

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains keys in nondecreasing order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) small_nat))
    (fun pairs ->
      let h = Dessim.Int_heap.create () in
      List.iteri (fun i (t, _) -> Dessim.Int_heap.add h ~time:t ~seq:i i) pairs;
      let drained = drain h in
      let rec sorted = function
        | (t1, s1, _) :: ((t2, s2, _) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | [ _ ] | [] -> true
      in
      List.length drained = List.length pairs && sorted drained)

let prop_heap_multiset =
  QCheck.Test.make ~name:"heap preserves payload multiset" ~count:200
    QCheck.(list (float_bound_exclusive 100.))
    (fun times ->
      let h = Dessim.Int_heap.create () in
      List.iteri (fun i t -> Dessim.Int_heap.add h ~time:t ~seq:i i) times;
      let out = List.map (fun (_, _, i) -> List.nth times i) (drain h) in
      List.sort compare out = List.sort compare times)

(* ---------- Scheduler ---------- *)

let test_sched_runs_in_order () =
  let s = Dessim.Scheduler.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Dessim.Scheduler.schedule s ~at:2. (note "b"));
  ignore (Dessim.Scheduler.schedule s ~at:1. (note "a"));
  ignore (Dessim.Scheduler.schedule s ~at:3. (note "c"));
  Dessim.Scheduler.run s;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sched_fifo_same_time () =
  let s = Dessim.Scheduler.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Dessim.Scheduler.schedule s ~at:1. (fun () -> log := i :: !log))
  done;
  Dessim.Scheduler.run s;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_sched_clock_advances () =
  let s = Dessim.Scheduler.create () in
  let seen = ref 0. in
  ignore (Dessim.Scheduler.schedule s ~at:4.5 (fun () -> seen := Dessim.Scheduler.now s));
  Dessim.Scheduler.run s;
  check_float "clock at event" 4.5 !seen;
  check_float "clock after run" 4.5 (Dessim.Scheduler.now s)

let test_sched_past_rejected () =
  let s = Dessim.Scheduler.create () in
  ignore (Dessim.Scheduler.schedule s ~at:5. (fun () -> ()));
  Dessim.Scheduler.run s;
  Alcotest.check_raises "past" (Invalid_argument "Scheduler.schedule: at=1 is before now=5")
    (fun () -> ignore (Dessim.Scheduler.schedule s ~at:1. (fun () -> ())))

let test_sched_negative_delay_rejected () =
  let s = Dessim.Scheduler.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Scheduler.after: negative delay")
    (fun () -> ignore (Dessim.Scheduler.after s ~delay:(-1.) (fun () -> ())))

(* NaN compares false both ways, so a bound written as [at < now] lets a
   NaN time through: the event then never fires before a horizon, or fires
   last and sets the clock to NaN. Every entry point must refuse it and
   leave the queue and the clock as they were. *)
let test_sched_nan_rejected () =
  let s = Dessim.Scheduler.create () in
  ignore (Dessim.Scheduler.schedule s ~at:1. (fun () -> ()));
  ignore (Dessim.Scheduler.schedule s ~at:10. (fun () -> ()));
  Dessim.Scheduler.run ~until:5. s;
  let tag = Dessim.Scheduler.register s (fun () -> ()) in
  let before_now = Invalid_argument "Scheduler.schedule: at=nan is before now=5" in
  let negative = Invalid_argument "Scheduler.after: negative delay" in
  List.iter
    (fun (name, exn, push) ->
      Alcotest.check_raises name exn (fun () -> ignore (push () : Dessim.Scheduler.handle));
      check_float (name ^ " leaves now") 5. (Dessim.Scheduler.now s);
      Alcotest.(check int) (name ^ " leaves pending") 1 (Dessim.Scheduler.pending s))
    [
      ("schedule", before_now, fun () -> Dessim.Scheduler.schedule s ~at:nan ignore);
      ("after", negative, fun () -> Dessim.Scheduler.after s ~delay:nan ignore);
      ( "schedule_tag_h",
        before_now,
        fun () -> Dessim.Scheduler.schedule_tag_h s ~at:nan tag () );
      ( "after_tag_h",
        negative,
        fun () -> Dessim.Scheduler.after_tag_h s ~delay:nan tag () );
    ]

let test_sched_cancel () =
  let s = Dessim.Scheduler.create () in
  let fired = ref false in
  let h = Dessim.Scheduler.schedule s ~at:1. (fun () -> fired := true) in
  Dessim.Scheduler.cancel s h;
  Dessim.Scheduler.run s;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "not counted" 0 (Dessim.Scheduler.events_processed s)

let test_sched_nested_scheduling () =
  let s = Dessim.Scheduler.create () in
  let log = ref [] in
  ignore
    (Dessim.Scheduler.schedule s ~at:1. (fun () ->
         log := "outer" :: !log;
         ignore
           (Dessim.Scheduler.after s ~delay:1. (fun () -> log := "inner" :: !log))));
  Dessim.Scheduler.run s;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "final time" 2. (Dessim.Scheduler.now s)

let test_sched_until_horizon () =
  let s = Dessim.Scheduler.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Dessim.Scheduler.schedule s ~at:t (fun () -> fired := t :: !fired)))
    [ 1.; 2.; 3.; 10. ];
  Dessim.Scheduler.run ~until:5. s;
  Alcotest.(check (list (float 0.))) "fired up to horizon" [ 1.; 2.; 3. ] (List.rev !fired);
  check_float "clock at horizon" 5. (Dessim.Scheduler.now s);
  Alcotest.(check int) "one pending" 1 (Dessim.Scheduler.pending s);
  Dessim.Scheduler.run s;
  Alcotest.(check (list (float 0.))) "rest fired" [ 1.; 2.; 3.; 10. ] (List.rev !fired)

let test_sched_until_exact_event_time () =
  let s = Dessim.Scheduler.create () in
  let fired = ref false in
  ignore (Dessim.Scheduler.schedule s ~at:5. (fun () -> fired := true));
  Dessim.Scheduler.run ~until:5. s;
  Alcotest.(check bool) "event at horizon fires" true !fired

let test_sched_self_perpetuating_with_horizon () =
  let s = Dessim.Scheduler.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Dessim.Scheduler.after s ~delay:1. tick)
  in
  ignore (Dessim.Scheduler.schedule s ~at:0. tick);
  Dessim.Scheduler.run ~until:10.5 s;
  Alcotest.(check int) "ticks 0..10" 11 !count

(* ---------- Handles ---------- *)

(* An event that cancels its own handle while it runs, after scheduling a
   follow-up that reuses its pool cell: the cancel is a no-op, and so is a
   second one after the run. *)
let test_sched_cancel_after_fire () =
  let s = Dessim.Scheduler.create () in
  let log = ref [] in
  let self = ref None in
  let h =
    Dessim.Scheduler.schedule s ~at:1. (fun () ->
        log := "first" :: !log;
        ignore
          (Dessim.Scheduler.after s ~delay:1. (fun () ->
               log := "follow-up" :: !log));
        match !self with Some h -> Dessim.Scheduler.cancel s h | None -> ())
  in
  self := Some h;
  Dessim.Scheduler.run s;
  Dessim.Scheduler.cancel s h;
  Alcotest.(check (list string)) "both fired" [ "first"; "follow-up" ] (List.rev !log);
  Alcotest.(check int) "none skipped" 0 (Dessim.Scheduler.events_skipped s)

(* After an event fires its cell is the only free one, so the next event
   reuses it: the old handle must not reach the new event. *)
let test_sched_stale_handle_recycled_cell () =
  let s = Dessim.Scheduler.create () in
  let tag = Dessim.Scheduler.register s (fun (r : int ref) -> incr r) in
  let fired = ref 0 in
  let stale = Dessim.Scheduler.schedule_tag_h s ~at:1. tag fired in
  Dessim.Scheduler.run s;
  let fresh = Dessim.Scheduler.schedule_tag_h s ~at:2. tag fired in
  Alcotest.(check bool) "a new handle" true (stale <> fresh);
  Dessim.Scheduler.cancel s stale;
  Dessim.Scheduler.run s;
  Alcotest.(check int) "new event fired" 2 !fired;
  Alcotest.(check int) "none skipped" 0 (Dessim.Scheduler.events_skipped s)

(* One event cancels a later one due at the same instant, on the heap (a
   closure at an absolute time) and on a timing lane (a tagged event at a
   recurring delay); the bystanders between them still fire. *)
let test_sched_cancel_same_instant () =
  let s = Dessim.Scheduler.create () in
  let log = ref [] in
  let note name () = log := name :: !log in
  let tag = Dessim.Scheduler.register s (fun name -> note name ()) in
  (* 64 occurrences of a delay promote it to a lane. *)
  for _ = 1 to 64 do
    ignore (Dessim.Scheduler.after_tag_h s ~delay:2. tag "warm-up")
  done;
  Dessim.Scheduler.run s;
  log := [];
  let victims = ref [] in
  ignore
    (Dessim.Scheduler.schedule s ~at:4. (fun () ->
         note "canceller" ();
         List.iter (Dessim.Scheduler.cancel s) !victims));
  let heap_victim = Dessim.Scheduler.schedule s ~at:4. (note "heap victim") in
  ignore (Dessim.Scheduler.schedule s ~at:4. (note "bystander"));
  let lane_victim = Dessim.Scheduler.after_tag_h s ~delay:2. tag "lane victim" in
  ignore (Dessim.Scheduler.after_tag_h s ~delay:2. tag "lane bystander");
  victims := [ heap_victim; lane_victim ];
  let skipped = Dessim.Scheduler.events_skipped s in
  Dessim.Scheduler.run s;
  Alcotest.(check (list string))
    "victims skipped" [ "canceller"; "bystander"; "lane bystander" ] (List.rev !log);
  Alcotest.(check int) "two skipped" 2 (Dessim.Scheduler.events_skipped s - skipped)

(* Handles taken while the pool had 16 cells still name their events after
   it has grown to 256. *)
let test_sched_handles_survive_growth () =
  let s = Dessim.Scheduler.create () in
  let n = 200 in
  let fired = Array.make n false in
  let handles =
    Array.init n (fun i ->
        Dessim.Scheduler.schedule s ~at:(float_of_int (i mod 7)) (fun () ->
            fired.(i) <- true))
  in
  let victims = [ 0; 15; 16; 100; 199 ] in
  List.iter (fun i -> Dessim.Scheduler.cancel s handles.(i)) victims;
  Dessim.Scheduler.run s;
  Array.iteri
    (fun i f ->
      Alcotest.(check bool) (Printf.sprintf "event %d" i) (not (List.mem i victims)) f)
    fired;
  Alcotest.(check int) "skipped" (List.length victims) (Dessim.Scheduler.events_skipped s)

(* ---------- Timing lanes ---------- *)

(* [count] events of [delay], one pushed by each other's handler, so that
   each push happens at its own instant. *)
let recur s ~delay ~count =
  let left = ref count in
  let rec tick () =
    decr left;
    if !left > 0 then Dessim.Scheduler.fire_after s ~delay tick
  in
  Dessim.Scheduler.fire_after s ~delay tick;
  Dessim.Scheduler.run s

(* Fill the table with 8 lanes, one per delay, and drain them all. *)
let full_drained_table () =
  let s = Dessim.Scheduler.create () in
  for i = 1 to 8 do
    recur s ~delay:(float_of_int i) ~count:64
  done;
  (* Every push of the warm-up went to the heap: 63 to count each delay,
     and the 64th, which promoted it. *)
  Alcotest.(check int) "one promoting push each" (8 * 64) (Dessim.Scheduler.heap_pushes s);
  recur s ~delay:1. ~count:100;
  Alcotest.(check int) "lanes hold their delays" (8 * 64) (Dessim.Scheduler.heap_pushes s);
  s

(* A full table recycles a drained lane for a delay that recurs now: after
   its 64th heap push, a 9th delay rides the least recently used lane. A
   table that only grows keeps it on the heap for all 1000 pushes. *)
let test_lane_recycled () =
  let s = full_drained_table () in
  let h0 = Dessim.Scheduler.heap_pushes s in
  let fired0 = Dessim.Scheduler.events_processed s in
  recur s ~delay:0.5 ~count:1000;
  Alcotest.(check int) "all fired" 1000 (Dessim.Scheduler.events_processed s - fired0);
  Alcotest.(check int) "heap pushes before the lane" 64
    (Dessim.Scheduler.heap_pushes s - h0);
  (* Delay 1's lane was appended last, so delay 2's was the least recently
     used: delay 2 starts over on the heap, and delay 1 keeps its lane. *)
  let h1 = Dessim.Scheduler.heap_pushes s in
  recur s ~delay:1. ~count:10;
  Alcotest.(check int) "a kept lane" 0 (Dessim.Scheduler.heap_pushes s - h1);
  recur s ~delay:2. ~count:10;
  Alcotest.(check int) "the recycled lane's old delay" 10
    (Dessim.Scheduler.heap_pushes s - h1)

(* How a full table counts. A delay repeated 1000 times at one instant
   counts once, so it never takes a lane: it would hold it for the whole
   delay and gain nothing after the instant. And counts left by delays
   that stopped recurring fade: a new delay that recurs among one-off
   delays, one each between its pushes, still earns a lane, where evicting
   the lowest count would evict it every time. *)
let test_full_table_counting () =
  let s = full_drained_table () in
  let h0 = Dessim.Scheduler.heap_pushes s in
  for _ = 1 to 1000 do
    Dessim.Scheduler.fire_after s ~delay:9. ignore
  done;
  Dessim.Scheduler.run s;
  Alcotest.(check int) "one-instant batch on the heap" 1000
    (Dessim.Scheduler.heap_pushes s - h0);
  (* Warm-up leftovers: 16 delays that each recurred 63 times. *)
  for i = 1 to 16 do
    recur s ~delay:(10. +. float_of_int i) ~count:63
  done;
  let one_off = ref 100. in
  let left = ref 400 in
  let rec tick () =
    one_off := !one_off +. 0.001;
    Dessim.Scheduler.fire_after s ~delay:!one_off ignore;
    decr left;
    if !left > 0 then Dessim.Scheduler.fire_after s ~delay:0.25 tick
  in
  let h1 = Dessim.Scheduler.heap_pushes s in
  Dessim.Scheduler.fire_after s ~delay:0.25 tick;
  Dessim.Scheduler.run s;
  (* 400 one-offs, plus the recurring delay's pushes until its lane. *)
  let recurring_on_heap = Dessim.Scheduler.heap_pushes s - h1 - 400 in
  Alcotest.(check bool)
    (Printf.sprintf "recurring delay earned a lane (%d of 400 pushes on the heap)"
       recurring_on_heap)
    true (recurring_on_heap < 200)

(* ---------- Allocation ---------- *)

(* Minor words per event over 100k steady-state events. [run ~until:warm]
   first grows the cell pool and promotes the recurring 1 s delay to a
   timing lane; the events of the next 100k seconds are then measured. Any
   allocation per event costs at least 2 words, so a per-event figure under
   0.01 means none. *)
let steady_words_per_event s =
  let warm = 1000.5 and n = 100_000 in
  Dessim.Scheduler.run ~until:warm s;
  let e0 = Dessim.Scheduler.events_processed s in
  let w0 = Gc.minor_words () in
  Dessim.Scheduler.run ~until:(warm +. float_of_int n) s;
  let w1 = Gc.minor_words () in
  let events = Dessim.Scheduler.events_processed s - e0 in
  Alcotest.(check int) "measured events" n events;
  (w1 -. w0) /. float_of_int events

let test_alloc_tagged_event () =
  let s = Dessim.Scheduler.create () in
  let tag = ref None in
  let fire (count : int ref) =
    incr count;
    match !tag with
    | Some tg -> ignore (Dessim.Scheduler.after_tag_h s ~delay:1. tg count)
    | None -> ()
  in
  let tg = Dessim.Scheduler.register s fire in
  tag := Some tg;
  ignore (Dessim.Scheduler.after_tag_h s ~delay:1. tg (ref 0));
  Alcotest.(check (float 0.01)) "words per tagged event" 0. (steady_words_per_event s)

let test_alloc_fire_after () =
  let s = Dessim.Scheduler.create () in
  let rec tick () = Dessim.Scheduler.fire_after s ~delay:1. tick in
  Dessim.Scheduler.fire_at s ~at:0. tick;
  Alcotest.(check (float 0.01)) "words per fire_after event" 0. (steady_words_per_event s)

(* A delayed event that misses the timing lanes: one self-rescheduling
   tagged event cycles through 20 distinct delays read from an array. At
   most 8 of them hold a lane at a time, and the full table hands drained
   lanes from delay to delay, so at least 60% of its pushes go to the heap.
   The first 5000 events grow the cell pool, the heap and the 8 lanes; the
   next 100k are measured. Neither the delay nor the absolute time handed to
   the heap may be boxed, and recycling a lane allocates nothing. *)
let test_alloc_heap_delayed () =
  let s = Dessim.Scheduler.create () in
  let delays = Array.init 20 (fun i -> 0.25 *. float_of_int (i + 1)) in
  let tag = ref None in
  let fire (count : int ref) =
    incr count;
    match !tag with
    | Some tg ->
      ignore (Dessim.Scheduler.after_tag_h s ~delay:delays.(!count mod 20) tg count)
    | None -> ()
  in
  let tg = Dessim.Scheduler.register s fire in
  tag := Some tg;
  ignore (Dessim.Scheduler.after_tag_h s ~delay:delays.(0) tg (ref 0));
  let steps n =
    for _ = 1 to n do
      ignore (Dessim.Scheduler.step s : bool)
    done
  in
  let n = 100_000 in
  steps 5000;
  let h0 = Dessim.Scheduler.heap_pushes s in
  let w0 = Gc.minor_words () in
  steps n;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "measured events" (5000 + n) (Dessim.Scheduler.events_processed s);
  let on_heap = Dessim.Scheduler.heap_pushes s - h0 in
  Alcotest.(check bool)
    (Printf.sprintf "most pushes reach the heap (%d of %d)" on_heap n)
    true
    (on_heap * 10 >= n * 6);
  Alcotest.(check (float 0.01))
    "words per heap-path event" 0.
    ((w1 -. w0) /. float_of_int n)

(* Reading the clock from another module is a plain load: [now] returns
   the unboxed clock, and adding it into a local float allocates nothing. *)
let test_alloc_now () =
  let s = Dessim.Scheduler.create () in
  Dessim.Scheduler.run ~until:2.5 s;
  let n = 100_000 in
  let acc = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc +. Dessim.Scheduler.now s
  done;
  let w1 = Gc.minor_words () in
  check_float "sum of readings" (2.5 *. float_of_int n) !acc;
  Alcotest.(check (float 0.01)) "words per now call" 0. ((w1 -. w0) /. float_of_int n)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Dessim.Rng.create 42 and b = Dessim.Rng.create 42 in
  let xs = List.init 100 (fun _ -> Dessim.Rng.bits64 a) in
  let ys = List.init 100 (fun _ -> Dessim.Rng.bits64 b) in
  Alcotest.(check bool) "same stream" true (xs = ys)

let test_rng_seeds_differ () =
  let a = Dessim.Rng.create 1 and b = Dessim.Rng.create 2 in
  Alcotest.(check bool) "different" false
    (List.init 10 (fun _ -> Dessim.Rng.bits64 a)
    = List.init 10 (fun _ -> Dessim.Rng.bits64 b))

let test_rng_copy_independent () =
  let a = Dessim.Rng.create 7 in
  let b = Dessim.Rng.copy a in
  let x = Dessim.Rng.bits64 a in
  let y = Dessim.Rng.bits64 b in
  Alcotest.(check bool) "copy same next" true (x = y);
  ignore (Dessim.Rng.bits64 a);
  let x2 = Dessim.Rng.bits64 a and y2 = Dessim.Rng.bits64 b in
  Alcotest.(check bool) "diverged after extra draw" false (x2 = y2)

let test_rng_split_independent () =
  let a = Dessim.Rng.create 7 in
  let b = Dessim.Rng.split a in
  let xs = List.init 20 (fun _ -> Dessim.Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Dessim.Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_int_bounds () =
  let r = Dessim.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Dessim.Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_rejects_nonpositive () =
  let r = Dessim.Rng.create 3 in
  Alcotest.check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Dessim.Rng.int r 0))

let test_rng_int_covers_all_values () =
  let r = Dessim.Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Dessim.Rng.int r 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let r = Dessim.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Dessim.Rng.float r 3.5 in
    if v < 0. || v >= 3.5 then Alcotest.failf "out of range: %f" v
  done

let test_rng_uniform_bounds () =
  let r = Dessim.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Dessim.Rng.uniform r 2. 5. in
    if v < 2. || v >= 5. then Alcotest.failf "out of range: %f" v
  done

let test_rng_float_mean () =
  let r = Dessim.Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dessim.Rng.float r 1.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_pick () =
  let r = Dessim.Rng.create 17 in
  let xs = [ 1; 2; 3 ] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (List.mem (Dessim.Rng.pick r xs) xs)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Dessim.Rng.pick r []))

let test_rng_shuffle_permutation () =
  let r = Dessim.Rng.create 19 in
  let a = Array.init 50 Fun.id in
  Dessim.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 50 Fun.id)

(* ---------- Stat ---------- *)

let test_stat_mean () =
  check_float "mean" 2. (Dessim.Stat.mean [ 1.; 2.; 3. ]);
  check_float "empty" 0. (Dessim.Stat.mean [])

let test_stat_variance_stddev () =
  check_float "variance" 2. (Dessim.Stat.variance [ 1.; 2.; 3.; 4.; 5. ]);
  check_float "stddev" (sqrt 2.) (Dessim.Stat.stddev [ 1.; 2.; 3.; 4.; 5. ]);
  check_float "single" 0. (Dessim.Stat.variance [ 42. ])

let test_stat_min_max () =
  check_float "min" (-1.) (Dessim.Stat.minimum [ 3.; -1.; 2. ]);
  check_float "max" 3. (Dessim.Stat.maximum [ 3.; -1.; 2. ])

let test_stat_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "p0" 1. (Dessim.Stat.percentile 0. xs);
  check_float "p50" 3. (Dessim.Stat.percentile 50. xs);
  check_float "p100" 5. (Dessim.Stat.percentile 100. xs);
  check_float "p25 interpolates" 2. (Dessim.Stat.percentile 25. xs);
  check_float "median" 3. (Dessim.Stat.median xs)

let test_stat_acc_matches_batch () =
  let xs = [ 1.5; 2.5; 0.5; 9.; -3. ] in
  let acc = Dessim.Stat.Acc.create () in
  List.iter (Dessim.Stat.Acc.add acc) xs;
  Alcotest.(check int) "count" 5 (Dessim.Stat.Acc.count acc);
  check_float "mean" (Dessim.Stat.mean xs) (Dessim.Stat.Acc.mean acc);
  Alcotest.(check (float 1e-9)) "variance" (Dessim.Stat.variance xs)
    (Dessim.Stat.Acc.variance acc);
  check_float "min" (-3.) (Dessim.Stat.Acc.minimum acc);
  check_float "max" 9. (Dessim.Stat.Acc.maximum acc);
  check_float "total" (List.fold_left ( +. ) 0. xs) (Dessim.Stat.Acc.total acc)

let prop_acc_mean_equals_batch_mean =
  QCheck.Test.make ~name:"Acc mean = batch mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.))
    (fun xs ->
      let acc = Dessim.Stat.Acc.create () in
      List.iter (Dessim.Stat.Acc.add acc) xs;
      abs_float (Dessim.Stat.Acc.mean acc -. Dessim.Stat.mean xs) < 1e-6)

(* ---------- Series ---------- *)

let test_series_bucketing () =
  let s = Dessim.Series.create ~start:10. ~width:2. ~buckets:5 in
  Alcotest.(check (option int)) "below range" None (Dessim.Series.bucket_of_time s 9.9);
  Alcotest.(check (option int)) "first" (Some 0) (Dessim.Series.bucket_of_time s 10.);
  Alcotest.(check (option int)) "mid" (Some 2) (Dessim.Series.bucket_of_time s 14.5);
  Alcotest.(check (option int)) "last" (Some 4) (Dessim.Series.bucket_of_time s 19.99);
  Alcotest.(check (option int)) "beyond" None (Dessim.Series.bucket_of_time s 20.)

let test_series_add_and_stats () =
  let s = Dessim.Series.create ~start:0. ~width:1. ~buckets:3 in
  Dessim.Series.add s ~time:0.5 2.;
  Dessim.Series.add s ~time:0.7 4.;
  Dessim.Series.add s ~time:2.1 10.;
  Dessim.Series.add s ~time:99. 100.;
  (* ignored *)
  Alcotest.(check int) "count b0" 2 (Dessim.Series.count s 0);
  check_float "sum b0" 6. (Dessim.Series.sum s 0);
  check_float "mean b0" 3. (Dessim.Series.mean s 0);
  check_float "rate b0" 2. (Dessim.Series.rate s 0);
  Alcotest.(check int) "count b1" 0 (Dessim.Series.count s 1);
  check_float "mean empty" 0. (Dessim.Series.mean s 1);
  Alcotest.(check int) "count b2" 1 (Dessim.Series.count s 2)

let test_series_time_of_bucket () =
  let s = Dessim.Series.create ~start:5. ~width:0.5 ~buckets:4 in
  check_float "edge" 6. (Dessim.Series.time_of_bucket s 2)

let prop_series_total_count =
  QCheck.Test.make ~name:"series: in-range samples are all counted" ~count:200
    QCheck.(list (float_bound_exclusive 10.))
    (fun times ->
      let s = Dessim.Series.create ~start:0. ~width:1. ~buckets:10 in
      List.iter (fun t -> Dessim.Series.add s ~time:t 1.) times;
      let total = ref 0 in
      for i = 0 to 9 do
        total := !total + Dessim.Series.count s i
      done;
      !total = List.length times)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dessim"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "min_elt keeps" `Quick test_heap_min_does_not_remove;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
        ]
        @ qsuite [ prop_heap_sorted; prop_heap_multiset ] );
      ( "scheduler",
        [
          Alcotest.test_case "runs in order" `Quick test_sched_runs_in_order;
          Alcotest.test_case "fifo same time" `Quick test_sched_fifo_same_time;
          Alcotest.test_case "clock advances" `Quick test_sched_clock_advances;
          Alcotest.test_case "past rejected" `Quick test_sched_past_rejected;
          Alcotest.test_case "negative delay rejected" `Quick
            test_sched_negative_delay_rejected;
          Alcotest.test_case "NaN time rejected" `Quick test_sched_nan_rejected;
          Alcotest.test_case "cancel" `Quick test_sched_cancel;
          Alcotest.test_case "nested" `Quick test_sched_nested_scheduling;
          Alcotest.test_case "until horizon" `Quick test_sched_until_horizon;
          Alcotest.test_case "until exact" `Quick test_sched_until_exact_event_time;
          Alcotest.test_case "self-perpetuating" `Quick
            test_sched_self_perpetuating_with_horizon;
        ] );
      ( "handles",
        [
          Alcotest.test_case "cancel after fire" `Quick test_sched_cancel_after_fire;
          Alcotest.test_case "stale handle, recycled cell" `Quick
            test_sched_stale_handle_recycled_cell;
          Alcotest.test_case "cancel at the same instant" `Quick
            test_sched_cancel_same_instant;
          Alcotest.test_case "valid across pool growth" `Quick
            test_sched_handles_survive_growth;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "drained lane recycled" `Quick test_lane_recycled;
          Alcotest.test_case "full table counting" `Quick test_full_table_counting;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "tagged event" `Quick test_alloc_tagged_event;
          Alcotest.test_case "fire_after event" `Quick test_alloc_fire_after;
          Alcotest.test_case "heap-path delayed event" `Quick test_alloc_heap_delayed;
          Alcotest.test_case "now across modules" `Quick test_alloc_now;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers_all_values;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stat",
        [
          Alcotest.test_case "mean" `Quick test_stat_mean;
          Alcotest.test_case "variance/stddev" `Quick test_stat_variance_stddev;
          Alcotest.test_case "min/max" `Quick test_stat_min_max;
          Alcotest.test_case "percentile" `Quick test_stat_percentile;
          Alcotest.test_case "acc matches batch" `Quick test_stat_acc_matches_batch;
        ]
        @ qsuite [ prop_acc_mean_equals_batch_mean ] );
      ( "series",
        [
          Alcotest.test_case "bucketing" `Quick test_series_bucketing;
          Alcotest.test_case "add and stats" `Quick test_series_add_and_stats;
          Alcotest.test_case "time_of_bucket" `Quick test_series_time_of_bucket;
        ]
        @ qsuite [ prop_series_total_count ] );
    ]
