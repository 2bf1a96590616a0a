(* A lightweight in-memory network for protocol unit tests: every control
   message is delivered after a fixed delay, with no bandwidth, queueing, or
   loss. This isolates protocol logic from the link model, which has its own
   tests. *)

module Make (P : Protocols.Proto_intf.PROTOCOL) = struct
  type net = {
    sched : Dessim.Scheduler.t;
    topo : Netsim.Topology.t;
    mutable routers : P.t array;
    mutable down : (int * int) list;  (* failed links, canonical (u < v) *)
    mutable silent : (int * int) list;  (* silenced links, canonical *)
    heard : (int * int, float) Hashtbl.t;  (* (receiver, sender) -> last delivery *)
    mutable messages : int;
    mutable route_changes : (float * int * int) list;  (* time, router, dst *)
  }

  let canonical u v = if u < v then (u, v) else (v, u)

  let make ?(config = P.default_config) ?(delay = 0.001) ~seed topo =
    let sched = Dessim.Scheduler.create () in
    let master = Dessim.Rng.create seed in
    let n = Netsim.Topology.node_count topo in
    let net =
      {
        sched;
        topo;
        routers = [||];
        down = [];
        silent = [];
        heard = Hashtbl.create 16;
        messages = 0;
        route_changes = [];
      }
    in
    (* Neither a failed nor a silenced link carries messages; only a failed
       one is reported to its ends. *)
    let blocked u v =
      let l = canonical u v in
      List.mem l net.down || List.mem l net.silent
    in
    let routers =
      Array.init n (fun id ->
          let rng = Dessim.Rng.split master in
          let actions =
            {
              Protocols.Proto_intf.now = (fun () -> Dessim.Scheduler.now sched);
              send =
                (fun neighbor msg ->
                  net.messages <- net.messages + 1;
                  if not (blocked id neighbor) then
                    ignore
                      (Dessim.Scheduler.after sched ~delay (fun () ->
                           if not (blocked id neighbor) then begin
                             Hashtbl.replace net.heard (neighbor, id)
                               (Dessim.Scheduler.now sched);
                             P.on_message net.routers.(neighbor) ~from:id msg
                           end)));
              after = (fun delay fn -> Dessim.Scheduler.after sched ~delay fn);
              route_changed =
                (fun dst ->
                  net.route_changes <-
                    (Dessim.Scheduler.now sched, id, dst) :: net.route_changes);
              note = (fun _ -> ());
            }
          in
          P.create config ~rng ~id
            ~neighbors:(Netsim.Topology.neighbors topo id)
            ~actions)
    in
    net.routers <- routers;
    net

  let start net = Array.iter P.start net.routers

  let run net ~until = Dessim.Scheduler.run ~until net.sched

  let router net i = net.routers.(i)

  let next_hop net i ~dst = P.next_hop net.routers.(i) ~dst

  let metric net i ~dst = P.metric net.routers.(i) ~dst

  let fail_link net u v =
    net.down <- canonical u v :: net.down;
    P.on_link_down net.routers.(u) ~neighbor:v;
    P.on_link_down net.routers.(v) ~neighbor:u

  let restore_link net u v =
    net.down <- List.filter (fun l -> l <> canonical u v) net.down;
    P.on_link_up net.routers.(u) ~neighbor:v;
    P.on_link_up net.routers.(v) ~neighbor:u

  (* Drop every message on link [u]-[v] from now on, including those in
     flight, without notifying either end: to the routers the neighbor just
     falls silent, so only their timeouts can notice. *)
  let silence_link net u v = net.silent <- canonical u v :: net.silent

  (* [i]'s neighbors over links that have not failed: the neighbors its
     protocol instance believes up. A silenced link still counts. *)
  let up_neighbors net i =
    List.filter
      (fun v -> not (List.mem (canonical i v) net.down))
      (Netsim.Topology.neighbors net.topo i)

  (* When [router] last received a message from [from], if ever. *)
  let last_heard net router ~from = Hashtbl.find_opt net.heard (router, from)

  let messages net = net.messages

  let route_changes net = List.rev net.route_changes

  let sched net = net.sched

  (* Assert that every router's next hops realize shortest paths of [topo']
     (the topology after any failures) toward [dst]. *)
  let check_shortest_paths ?(topo' : Netsim.Topology.t option) net ~dst =
    let topo = match topo' with Some t -> t | None -> net.topo in
    let dist = Netsim.Topology.bfs_distances topo dst in
    let n = Netsim.Topology.node_count topo in
    let check id =
      if id <> dst then begin
        if dist.(id) = max_int then begin
          match next_hop net id ~dst with
          | None -> ()
          | Some nh ->
            Alcotest.failf "router %d should have no route to %d, has %d" id dst nh
        end
        else begin
          match next_hop net id ~dst with
          | None -> Alcotest.failf "router %d has no route to %d" id dst
          | Some nh ->
            if not (Netsim.Topology.has_edge topo id nh) then
              Alcotest.failf "router %d next hop %d is not a live neighbor" id nh;
            if dist.(nh) <> dist.(id) - 1 then
              Alcotest.failf
                "router %d -> %d is not on a shortest path to %d (dist %d -> %d)"
                id nh dst dist.(id) dist.(nh)
        end
      end
    in
    for id = 0 to n - 1 do
      check id
    done
end
