(* Throwaway component probe: steady-state heap ops at depth, and the bare
   scheduler+link round trip without any protocol on top. *)

let now_ns () = Unix.gettimeofday () *. 1e9

let heap_steady depth =
  let h = Dessim.Int_heap.create () in
  let rng = Dessim.Rng.create 7 in
  let seq = ref 0 in
  for _ = 1 to depth do
    Dessim.Int_heap.add h ~time:(Dessim.Rng.float rng 180.) ~seq:!seq !seq;
    incr seq
  done;
  let slot = Dessim.Int_heap.slot () in
  let sq = ref 0 in
  let iters = 2_000_000 in
  let t0 = now_ns () in
  for _ = 1 to iters do
    let _x = Dessim.Int_heap.pop_into h slot ~seq:sq in
    Dessim.Int_heap.add h
      ~time:(slot.Dessim.Int_heap.slot_time +. Dessim.Rng.float rng 180.)
      ~seq:!seq !seq;
    incr seq
  done;
  let dt = now_ns () -. t0 in
  Printf.printf "heap depth %7d: %.1f ns per pop+push\n%!" depth
    (dt /. float_of_int iters)

let link_round_trip () =
  let sched = Dessim.Scheduler.create () in
  let events = ref 0 in
  let l = ref None in
  let deliver (_ : int) =
    incr events;
    if !events < 4_000_000 then
      match !l with
      | Some link ->
        ignore (Netsim.Link.send link ~size_bits:8000 1)
      | None -> ()
  in
  let link =
    Netsim.Link.create ~sched ~bandwidth_bps:1e9 ~prop_delay:0.001
      ~queue_capacity:64
      ~deliver
      ~dropped:(fun _ _ -> ())
      ()
  in
  l := Some link;
  for _ = 1 to 8 do
    ignore (Netsim.Link.send link ~size_bits:8000 1)
  done;
  let t0 = now_ns () in
  Dessim.Scheduler.run sched;
  let dt = now_ns () -. t0 in
  let ev = float_of_int (Dessim.Scheduler.events_processed sched) in
  Printf.printf "link round trip: %.0f events, %.1f ns/event\n%!" ev (dt /. ev)

let rng_only () =
  let rng = Dessim.Rng.create 7 in
  let iters = 2_000_000 in
  let acc = ref 0.0 in
  let t0 = now_ns () in
  for _ = 1 to iters do
    acc := !acc +. Dessim.Rng.float rng 180.
  done;
  let dt = now_ns () -. t0 in
  Printf.printf "rng draw: %.1f ns (acc %.1f)\n%!" (dt /. float_of_int iters)
    !acc

let sched_churn depth =
  let s = Dessim.Scheduler.create () in
  let n = ref 0 in
  let limit = 2_000_000 + depth in
  let rec tick () =
    incr n;
    if !n < limit then Dessim.Scheduler.fire_after s ~delay:1.0 tick
  in
  for _ = 1 to depth do
    Dessim.Scheduler.fire_after s ~delay:1.0 tick
  done;
  let t0 = now_ns () in
  Dessim.Scheduler.run s;
  let dt = now_ns () -. t0 in
  Printf.printf "sched churn depth %6d: %.1f ns/event\n%!" depth
    (dt /. float_of_int (Dessim.Scheduler.events_processed s))

let () =
  rng_only ();
  heap_steady 200;
  heap_steady 4_000;
  heap_steady 65_000;
  heap_steady 180_000;
  sched_churn 16;
  sched_churn 4_000;
  sched_churn 65_000;
  link_round_trip ()
