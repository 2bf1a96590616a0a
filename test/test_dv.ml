(* Tests for the shared distance-vector machinery: wire format, chunking,
   sizing, and the triggered-update damping gate. *)

let cfg = Protocols.Dv_core.default_config

let entry dst metric = { Protocols.Dv_core.dst; metric }

let test_defaults_match_rfc () =
  Alcotest.(check (float 0.)) "period" 30. cfg.Protocols.Dv_core.period;
  Alcotest.(check (float 0.)) "timeout" 180. cfg.Protocols.Dv_core.timeout;
  Alcotest.(check int) "infinity" 16 cfg.Protocols.Dv_core.infinity_metric;
  Alcotest.(check int) "entries" 25 cfg.Protocols.Dv_core.max_entries;
  Alcotest.(check (float 0.)) "damp min" 1. cfg.Protocols.Dv_core.damp_min;
  Alcotest.(check (float 0.)) "damp max" 5. cfg.Protocols.Dv_core.damp_max

let test_chunk_empty () =
  Alcotest.(check int) "no chunks" 0 (List.length (Protocols.Dv_core.chunk cfg []))

let test_chunk_small () =
  let entries = List.init 10 (fun i -> entry i 1) in
  match Protocols.Dv_core.chunk cfg entries with
  | [ one ] -> Alcotest.(check int) "all in one" 10 (List.length one)
  | chunks -> Alcotest.failf "expected 1 chunk, got %d" (List.length chunks)

let test_chunk_boundaries () =
  let check_counts n expected =
    let entries = List.init n (fun i -> entry i 1) in
    let chunks = Protocols.Dv_core.chunk cfg entries in
    Alcotest.(check (list int))
      (Printf.sprintf "%d entries" n)
      expected
      (List.map List.length chunks)
  in
  check_counts 25 [ 25 ];
  check_counts 26 [ 25; 1 ];
  check_counts 49 [ 25; 24 ];
  check_counts 75 [ 25; 25; 25 ]

let test_chunk_preserves_order () =
  let entries = List.init 60 (fun i -> entry i i) in
  let chunks = Protocols.Dv_core.chunk cfg entries in
  let flattened = List.concat chunks in
  Alcotest.(check bool) "order kept" true (flattened = entries)

let test_message_size () =
  (* 32-byte header + 20 bytes per entry, in bits. *)
  let msg = List.init 3 (fun i -> entry i 1) in
  Alcotest.(check int) "size" (8 * (32 + 60))
    (Protocols.Dv_core.message_size_bits cfg msg)

let test_jittered_period_bounds () =
  let rng = Dessim.Rng.create 1 in
  for _ = 1 to 1000 do
    let p = Protocols.Dv_core.jittered_period rng cfg in
    if p < 30. *. 0.95 || p >= 30. *. 1.05 then Alcotest.failf "period %f" p
  done

let prop_chunk_flatten_identity =
  QCheck.Test.make ~name:"chunk then flatten = identity" ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) small_nat)
    (fun dsts ->
      let entries = List.map (fun d -> entry d 1) dsts in
      let chunks = Protocols.Dv_core.chunk cfg entries in
      List.concat chunks = entries
      && List.for_all (fun c -> List.length c <= cfg.Protocols.Dv_core.max_entries) chunks
      && List.for_all (fun c -> c <> []) chunks)

(* A router that knows 60 destinations splits its full vector for each
   neighbor into messages of 25, 25 and 10 entries, ascending by
   destination, poisoning the routes it learned from that neighbor. Router
   0 hears 1 and 3..31 from neighbor 1, and 2 and 32..59 from neighbor 2. *)
let test_full_vector_split () =
  let sched = Dessim.Scheduler.create () in
  let sent = ref [] in
  let actions =
    {
      Protocols.Proto_intf.now = (fun () -> Dessim.Scheduler.now sched);
      send = (fun neighbor msg -> sent := (neighbor, msg) :: !sent);
      after = (fun delay fn -> Dessim.Scheduler.after sched ~delay fn);
      route_changed = ignore;
      note = ignore;
    }
  in
  let r =
    Protocols.Rip.create cfg ~rng:(Dessim.Rng.create 1) ~id:0 ~neighbors:[ 1; 2 ] ~actions
  in
  Protocols.Rip.start r;
  let learned_from dst = if dst = 1 || (dst >= 3 && dst <= 31) then 1 else 2 in
  let offer n =
    let dsts = List.filter (fun d -> learned_from d = n) (List.init 59 (fun i -> i + 1)) in
    Protocols.Rip.on_message r ~from:n
      (List.map (fun d -> entry d (if d = n then 0 else 1)) dsts)
  in
  offer 1;
  offer 2;
  Alcotest.(check int) "destinations known" 60
    (List.length (Protocols.Rip.known_destinations r));
  (* The next event that sends is the boot announce or the periodic update
     (the triggered update the offers caused went out at once, and the gate
     stays closed for at least a second): a full vector to each neighbor. *)
  sent := [];
  while !sent = [] && Dessim.Scheduler.step sched do
    ()
  done;
  List.iter
    (fun n ->
      let msgs =
        List.filter_map (fun (m, msg) -> if m = n then Some msg else None) (List.rev !sent)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "message sizes to %d" n)
        [ 25; 25; 10 ] (List.map List.length msgs);
      let expected dst =
        if dst = 0 then 0
        else if learned_from dst = n then cfg.Protocols.Dv_core.infinity_metric
        else if dst = 1 || dst = 2 then 1
        else 2
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "entries to %d" n)
        (List.init 60 (fun dst -> (dst, expected dst)))
        (List.map
           (fun (e : Protocols.Dv_core.entry) -> (e.dst, e.metric))
           (List.concat msgs)))
    [ 1; 2 ]

(* ---------- Trigger gate ---------- *)

type gate_env = {
  sched : Dessim.Scheduler.t;
  flushes : float list ref;
  trigger : Protocols.Dv_core.Trigger.t;
}

let make_gate ?(min_delay = 1.) ?(max_delay = 5.) seed =
  let sched = Dessim.Scheduler.create () in
  let flushes = ref [] in
  let trigger =
    Protocols.Dv_core.Trigger.create ~rng:(Dessim.Rng.create seed)
      ~after:(fun delay fn -> Dessim.Scheduler.after sched ~delay fn)
      ~min_delay ~max_delay
      ~flush:(fun () -> flushes := Dessim.Scheduler.now sched :: !flushes)
  in
  { sched; flushes; trigger }

let test_trigger_first_flush_immediate () =
  let env = make_gate 1 in
  Protocols.Dv_core.Trigger.request env.trigger;
  Alcotest.(check (list (float 0.))) "flushed at once" [ 0. ] !(env.flushes);
  Alcotest.(check bool) "gate closed" false
    (Protocols.Dv_core.Trigger.gate_open env.trigger)

let test_trigger_second_flush_damped () =
  let env = make_gate 2 in
  Protocols.Dv_core.Trigger.request env.trigger;
  Protocols.Dv_core.Trigger.request env.trigger;
  Protocols.Dv_core.Trigger.request env.trigger;
  Dessim.Scheduler.run env.sched;
  (match List.rev !(env.flushes) with
  | [ first; second ] ->
    Alcotest.(check (float 0.)) "first" 0. first;
    if second < 1. || second > 5. then Alcotest.failf "damped flush at %f" second
  | l -> Alcotest.failf "expected 2 flushes, got %d" (List.length l));
  Alcotest.(check bool) "gate reopens eventually" true
    (Protocols.Dv_core.Trigger.gate_open env.trigger)

let test_trigger_no_spurious_flush () =
  let env = make_gate 3 in
  Protocols.Dv_core.Trigger.request env.trigger;
  (* No second request: the timer expiry must not flush again. *)
  Dessim.Scheduler.run env.sched;
  Alcotest.(check int) "one flush" 1 (List.length !(env.flushes))

let test_trigger_full_update_clears_pending () =
  let env = make_gate 4 in
  Protocols.Dv_core.Trigger.request env.trigger;
  Protocols.Dv_core.Trigger.request env.trigger;
  (* A periodic full-table update supersedes the pending triggered one. *)
  Protocols.Dv_core.Trigger.note_full_update_sent env.trigger;
  Dessim.Scheduler.run env.sched;
  Alcotest.(check int) "no damped flush" 1 (List.length !(env.flushes))

let test_trigger_reopens_after_quiet () =
  let env = make_gate 5 in
  Protocols.Dv_core.Trigger.request env.trigger;
  Dessim.Scheduler.run env.sched;
  (* Gate is open again; a new request flushes immediately at current time. *)
  let now = Dessim.Scheduler.now env.sched in
  Protocols.Dv_core.Trigger.request env.trigger;
  (match !(env.flushes) with
  | latest :: _ -> Alcotest.(check (float 1e-9)) "immediate" now latest
  | [] -> Alcotest.fail "no flush")

let test_trigger_spacing_respects_bounds () =
  let env = make_gate ~min_delay:2. ~max_delay:3. 6 in
  (* Keep requesting; every flush after the first must be 2-3 s after the
     previous one. *)
  let rec pump n =
    if n > 0 then begin
      Protocols.Dv_core.Trigger.request env.trigger;
      ignore
        (Dessim.Scheduler.after env.sched ~delay:0.5 (fun () -> pump (n - 1)))
    end
  in
  pump 20;
  Dessim.Scheduler.run env.sched;
  let times = List.rev !(env.flushes) in
  let rec check_gaps = function
    | a :: (b :: _ as rest) ->
      let gap = b -. a in
      if gap < 2. || gap > 3. then Alcotest.failf "gap %f out of bounds" gap;
      check_gaps rest
    | [ _ ] | [] -> ()
  in
  Alcotest.(check bool) "several flushes" true (List.length times >= 3);
  check_gaps times

(* ---------- Deadline vector ---------- *)

type deadline_env = {
  dsched : Dessim.Scheduler.t;
  expiries : (float * int) list ref;  (* (time, slot), latest first *)
  deadlines : Protocols.Route_table.Deadline_vec.t;
}

let make_deadlines ?(timeout = 10.) () =
  let dsched = Dessim.Scheduler.create () in
  let expiries = ref [] in
  let deadlines =
    Protocols.Route_table.Deadline_vec.create ~timeout
      ~now:(fun () -> Dessim.Scheduler.now dsched)
      ~after:(fun delay fn -> Dessim.Scheduler.after dsched ~delay fn)
      ~expire:(fun i -> expiries := (Dessim.Scheduler.now dsched, i) :: !expiries)
  in
  { dsched; expiries; deadlines }

(* Advance the clock to [at] (firing whatever is due), then refresh [slot]. *)
let refresh_at env ~at slot =
  Dessim.Scheduler.run ~until:at env.dsched;
  Protocols.Route_table.Deadline_vec.refresh env.deadlines
    ~now:(Dessim.Scheduler.now env.dsched) slot

let check_pending env n =
  Alcotest.(check int) "events queued" n (Dessim.Scheduler.pending env.dsched)

let test_deadline_refresh_keeps_one_event () =
  (* Only the slot's own events are queued, so [pending] counts them. *)
  let env = make_deadlines () in
  for k = 0 to 999 do
    refresh_at env ~at:(0.009 *. float_of_int k) 7;
    check_pending env 1
  done;
  Dessim.Scheduler.run env.dsched;
  Alcotest.(check int) "one expiry" 1 (List.length !(env.expiries))

let test_deadline_expires_once_at_last_refresh () =
  (* Refreshes 7 s apart span several timeouts, so the outstanding event
     re-arms itself three times before the deadline finally lapses. *)
  let env = make_deadlines () in
  List.iter
    (fun at ->
      refresh_at env ~at 3;
      check_pending env 1)
    [ 0.; 7.; 14.; 21. ];
  Dessim.Scheduler.run env.dsched;
  Alcotest.(check (list (pair (float 0.) int))) "expired" [ (31., 3) ] !(env.expiries);
  check_pending env 0

let test_deadline_cancel_never_expires () =
  let env = make_deadlines () in
  refresh_at env ~at:0. 2;
  refresh_at env ~at:4. 2;
  Dessim.Scheduler.run ~until:6. env.dsched;
  Protocols.Route_table.Deadline_vec.cancel env.deadlines 2;
  Dessim.Scheduler.run env.dsched;
  Alcotest.(check (list (pair (float 0.) int))) "no expiry" [] !(env.expiries);
  check_pending env 0

let test_deadline_cancel_then_refresh_reuses_event () =
  let env = make_deadlines () in
  refresh_at env ~at:0. 5;
  Dessim.Scheduler.run ~until:3. env.dsched;
  Protocols.Route_table.Deadline_vec.cancel env.deadlines 5;
  Protocols.Route_table.Deadline_vec.refresh env.deadlines
    ~now:(Dessim.Scheduler.now env.dsched) 5;
  check_pending env 1;
  Dessim.Scheduler.run env.dsched;
  Alcotest.(check (list (pair (float 0.) int))) "new deadline" [ (13., 5) ] !(env.expiries)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dv_core"
    [
      ( "wire format",
        [
          Alcotest.test_case "rfc defaults" `Quick test_defaults_match_rfc;
          Alcotest.test_case "chunk empty" `Quick test_chunk_empty;
          Alcotest.test_case "chunk small" `Quick test_chunk_small;
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "chunk order" `Quick test_chunk_preserves_order;
          Alcotest.test_case "full vector split" `Quick test_full_vector_split;
          Alcotest.test_case "message size" `Quick test_message_size;
          Alcotest.test_case "jittered period" `Quick test_jittered_period_bounds;
        ]
        @ qsuite [ prop_chunk_flatten_identity ] );
      ( "trigger gate",
        [
          Alcotest.test_case "first immediate" `Quick test_trigger_first_flush_immediate;
          Alcotest.test_case "second damped" `Quick test_trigger_second_flush_damped;
          Alcotest.test_case "no spurious flush" `Quick test_trigger_no_spurious_flush;
          Alcotest.test_case "full update clears" `Quick
            test_trigger_full_update_clears_pending;
          Alcotest.test_case "reopens after quiet" `Quick test_trigger_reopens_after_quiet;
          Alcotest.test_case "spacing bounds" `Quick test_trigger_spacing_respects_bounds;
        ] );
      ( "deadline vector",
        [
          Alcotest.test_case "one event per slot" `Quick
            test_deadline_refresh_keeps_one_event;
          Alcotest.test_case "expires at last refresh" `Quick
            test_deadline_expires_once_at_last_refresh;
          Alcotest.test_case "cancel" `Quick test_deadline_cancel_never_expires;
          Alcotest.test_case "cancel then refresh" `Quick
            test_deadline_cancel_then_refresh_reuses_event;
        ] );
    ]
