type entry = { dst : Netsim.Types.node_id; metric : int }

type message = entry list

type config = {
  period : float;
  timeout : float;
  infinity_metric : int;
  damp_min : float;
  damp_max : float;
  max_entries : int;
  header_bytes : int;
  entry_bytes : int;
}

let default_config =
  {
    period = 30.;
    timeout = 180.;
    infinity_metric = 16;
    damp_min = 1.;
    damp_max = 5.;
    max_entries = 25;
    header_bytes = 32;
    entry_bytes = 20;
  }

let message_size_bits cfg msg =
  8 * (cfg.header_bytes + (cfg.entry_bytes * List.length msg))

let pp_entry ppf e = Fmt.pf ppf "%d:%d" e.dst e.metric

let pp_message ppf msg =
  Fmt.pf ppf "dv[%a]" Fmt.(list ~sep:(any " ") pp_entry) msg

(* A distance vector carries reachable and poisoned entries in one message;
   there is no pure withdrawal on the wire. *)
let message_kind (_ : message) = Proto_intf.Mixed

let chunk cfg entries =
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | e :: rest -> take (n - 1) (e :: acc) rest
  in
  let rec split acc = function
    | [] -> List.rev acc
    | entries ->
      let head, rest = take cfg.max_entries [] entries in
      split (head :: acc) rest
  in
  split [] entries

let jittered_period rng cfg =
  cfg.period *. Dessim.Rng.uniform rng 0.95 1.05

module Trigger = struct
  type t = {
    rng : Dessim.Rng.t;
    after : float -> (unit -> unit) -> Dessim.Scheduler.handle;
    min_delay : float;
    max_delay : float;
    flush : unit -> unit;
    mutable closed : bool;
    mutable pending : bool;
  }

  let create ~rng ~after ~min_delay ~max_delay ~flush =
    { rng; after; min_delay; max_delay; flush; closed = false; pending = false }

  let gate_open t = not t.closed

  let rec close_gate t =
    t.closed <- true;
    let delay = Dessim.Rng.uniform t.rng t.min_delay t.max_delay in
    ignore
      (t.after delay (fun () ->
           t.closed <- false;
           if t.pending then begin
             t.pending <- false;
             t.flush ();
             close_gate t
           end))

  let request t =
    if t.closed then t.pending <- true
    else begin
      t.flush ();
      close_gate t
    end

  let note_full_update_sent t = t.pending <- false
end

(* ---------- The shared router ---------- *)

(* Everything a RIP router and a DBF router have in common: the best-route
   table, the neighbors over live links, the destinations changed since the
   last triggered update and the gate that paces those updates, split
   horizon with poison reverse, the boot announce and the periodic cycle.
   The protocols below add only their rules for heard vectors and
   timeouts. *)
type router = {
  cfg : config;
  rng : Dessim.Rng.t;
  id : Netsim.Types.node_id;
  actions : message Proto_intf.actions;
  mutable up : Netsim.Types.node_id list;  (* ascending *)
  table : Route_table.t;
  changed : (Netsim.Types.node_id, unit) Hashtbl.t;
  mutable trigger : Trigger.t option;
  mutable started : bool;
}

let infinity_of r = r.cfg.infinity_metric

(* Entries advertised to [neighbor], with split horizon / poison reverse. *)
let entries_for r ~neighbor dsts =
  let entry dst =
    if not (Route_table.mem r.table dst) then None
    else begin
      let metric = Route_table.metric r.table dst in
      let poisoned = Route_table.next_hop_id r.table dst = neighbor in
      let metric =
        if poisoned then infinity_of r else min metric (infinity_of r)
      in
      Some { dst; metric }
    end
  in
  List.filter_map entry dsts

let send_vector r ~neighbor dsts =
  let entries = entries_for r ~neighbor dsts in
  let send_chunk chunk = if chunk <> [] then r.actions.Proto_intf.send neighbor chunk in
  List.iter send_chunk (chunk r.cfg entries)

let send_full r neighbor = send_vector r ~neighbor (Route_table.destinations r.table)

let flush_triggered r =
  let dsts = Hashtbl.fold (fun d () acc -> d :: acc) r.changed [] |> List.sort compare in
  Hashtbl.reset r.changed;
  if dsts <> [] then List.iter (fun n -> send_vector r ~neighbor:n dsts) r.up

let trigger r =
  match r.trigger with Some tr -> Trigger.request tr | None -> ()

let mark_changed r dst =
  Hashtbl.replace r.changed dst ();
  r.actions.Proto_intf.route_changed dst

let router cfg ~rng ~id ~neighbors ~actions =
  let r =
    {
      cfg;
      rng;
      id;
      actions;
      up = List.sort compare neighbors;
      table = Route_table.create ();
      changed = Hashtbl.create 16;
      trigger = None;
      started = false;
    }
  in
  r.trigger <-
    Some
      (Trigger.create ~rng ~after:actions.Proto_intf.after ~min_delay:cfg.damp_min
         ~max_delay:cfg.damp_max ~flush:(fun () -> flush_triggered r));
  r

(* Timeouts of [cfg.timeout] on the router's clock. *)
let timeouts r ~expire =
  Route_table.Deadline_vec.create ~timeout:r.cfg.timeout
    ~now:r.actions.Proto_intf.now ~after:r.actions.Proto_intf.after ~expire

let rec periodic r () =
  (* One destination snapshot for the whole round: the table cannot change
     between the per-neighbor sends of a single instant. *)
  let dsts = Route_table.destinations r.table in
  List.iter (fun n -> send_vector r ~neighbor:n dsts) r.up;
  (* The full table supersedes any pending triggered update. *)
  (match r.trigger with Some tr -> Trigger.note_full_update_sent tr | None -> ());
  Hashtbl.reset r.changed;
  ignore (r.actions.Proto_intf.after (jittered_period r.rng r.cfg) (periodic r))

let start r ~what =
  if r.started then invalid_arg (what ^ ": already started");
  r.started <- true;
  Route_table.set r.table ~dst:r.id ~metric:0 ~next_hop:(-1);
  (* Announce quickly on boot (RFC request/response), then settle into the
     jittered periodic cycle at a random phase. *)
  ignore
    (r.actions.Proto_intf.after
       (Dessim.Rng.uniform r.rng 0.01 0.5)
       (fun () -> List.iter (send_full r) r.up));
  ignore (r.actions.Proto_intf.after (Dessim.Rng.float r.rng r.cfg.period) (periodic r))

let link_down r ~neighbor = r.up <- List.filter (fun n -> n <> neighbor) r.up

let on_link_up r ~neighbor =
  if not (List.mem neighbor r.up) then begin
    r.up <- List.sort compare (neighbor :: r.up);
    send_full r neighbor
  end

let next_hop r ~dst =
  if Route_table.metric r.table dst >= 0
     && Route_table.metric r.table dst < infinity_of r
  then Route_table.next_hop r.table dst
  else None

let metric r ~dst =
  let m = Route_table.metric r.table dst in
  if m >= 0 && m < infinity_of r then Some m else None

(* The wire half of [Proto_intf.PROTOCOL]. *)
module Wire = struct
  type nonrec message = message

  type nonrec config = config

  let uses_reliable_transport = false

  let default_config = default_config

  let pp_message = pp_message

  let message_kind = message_kind

  (* Must not depend on instance state, so it uses the default framing. *)
  let message_size_bits msg = message_size_bits default_config msg
end

(* ---------- RIP: only the best route ---------- *)

module Rip = struct
  include Wire

  let name = "RIP"

  type t = {
    r : router;
    timeouts : Route_table.Deadline_vec.t;  (* per-destination route timeouts *)
    order : (Netsim.Types.node_id, unit) Hashtbl.t;
        (* Destinations in hash-table iteration order. The dense table has
           no insertion order, but the order in which [on_link_down]
           invalidates routes is observable (per-destination trace events at
           one instant), and the original implementation folded over its
           route Hashtbl. This shadow table receives exactly the same
           insertions, so folding it reproduces that order. *)
  }

  let expire r dst =
    if Route_table.metric r.table dst < infinity_of r then begin
      Route_table.set_metric r.table ~dst ~metric:(infinity_of r);
      mark_changed r dst;
      trigger r
    end

  let create cfg ~rng ~id ~neighbors ~actions =
    let r = router cfg ~rng ~id ~neighbors ~actions in
    { r; timeouts = timeouts r ~expire:(expire r); order = Hashtbl.create 64 }

  (* A route is replaced only by a strictly better one, but its current next
     hop is believed unconditionally — refreshing the timeout, or poisoning
     the route. Returns true when the route changed (the caller batches the
     trigger request). *)
  let process_entry t ~from:neighbor (e : entry) =
    let r = t.r in
    if e.dst = r.id then false
    else begin
      let inf = infinity_of r in
      let advertised = min e.metric inf in
      let new_metric = min (advertised + 1) inf in
      if not (Route_table.mem r.table e.dst) then begin
        if new_metric < inf then begin
          Route_table.set r.table ~dst:e.dst ~metric:new_metric ~next_hop:neighbor;
          Hashtbl.replace t.order e.dst ();
          Route_table.Deadline_vec.refresh t.timeouts e.dst;
          mark_changed r e.dst;
          true
        end
        else false
      end
      else if Route_table.next_hop_id r.table e.dst = neighbor then begin
        if new_metric < inf then Route_table.Deadline_vec.refresh t.timeouts e.dst
        else Route_table.Deadline_vec.cancel t.timeouts e.dst;
        if new_metric <> Route_table.metric r.table e.dst then begin
          Route_table.set_metric r.table ~dst:e.dst ~metric:new_metric;
          mark_changed r e.dst;
          true
        end
        else false
      end
      else if new_metric < Route_table.metric r.table e.dst then begin
        Route_table.set r.table ~dst:e.dst ~metric:new_metric ~next_hop:neighbor;
        Route_table.Deadline_vec.refresh t.timeouts e.dst;
        mark_changed r e.dst;
        true
      end
      else false
    end

  let start t =
    start t.r ~what:"Rip.start";
    Hashtbl.replace t.order t.r.id ()

  let on_message t ~from msg =
    if List.mem from t.r.up then begin
      let changed_any =
        List.fold_left (fun acc e -> process_entry t ~from e || acc) false msg
      in
      if changed_any then trigger t.r
    end

  (* No alternate is kept: every route through [neighbor] dies at once. *)
  let on_link_down t ~neighbor =
    let r = t.r in
    link_down r ~neighbor;
    let invalidate dst () changed =
      if
        Route_table.next_hop_id r.table dst = neighbor
        && Route_table.metric r.table dst < infinity_of r
      then begin
        Route_table.set_metric r.table ~dst ~metric:(infinity_of r);
        Route_table.Deadline_vec.cancel t.timeouts dst;
        mark_changed r dst;
        true
      end
      else changed
    in
    if Hashtbl.fold invalidate t.order false then trigger r

  let on_link_up t ~neighbor = on_link_up t.r ~neighbor

  let next_hop t ~dst = next_hop t.r ~dst

  let metric t ~dst = metric t.r ~dst

  let known_destinations t = Route_table.destinations t.r.table
end

(* ---------- DBF: the latest vector of every neighbor ---------- *)

module Dbf = struct
  include Wire

  let name = "DBF"

  (* One neighbor's adj-RIB-in: the vector of metrics last heard from it,
     dense by destination id, with one timeout per entry. A heard metric of
     [infinity_metric] and a never-heard destination are indistinguishable
     to every consumer (both mean "this neighbor offers no route"), so the
     vector needs no separate presence bit — infinity is the fill value. *)
  type neighbor_cache = {
    heard : Route_table.Int_vec.t;
    timeouts : Route_table.Deadline_vec.t;
  }

  type t = {
    r : router;
    cache : neighbor_cache option Route_table.Vec.t;
        (* dense by neighbor id: [recompute] probes every up neighbor for
           every destination, so this lookup must not hash or allocate *)
  }

  let create cfg ~rng ~id ~neighbors ~actions =
    {
      r = router cfg ~rng ~id ~neighbors ~actions;
      cache = Route_table.Vec.create ~default:None;
    }

  let cached_metric t ~neighbor ~dst =
    match Route_table.Vec.get t.cache neighbor with
    | None -> None
    | Some nc ->
      let heard = Route_table.Int_vec.get nc.heard dst in
      if heard < infinity_of t.r then Some heard else None

  (* The metric this router would reach [dst] through [neighbor] at. *)
  let candidate t ~neighbor ~dst ~inf =
    match Route_table.Vec.get t.cache neighbor with
    | None -> inf
    | Some nc -> min (Route_table.Int_vec.get nc.heard dst + 1) inf

  (* Recompute the best route to [dst] from the neighbor cache. Prefers the
     incumbent next hop on ties, then the lowest neighbor id, so routes are
     stable and deterministic. Returns true when metric or next hop changed.
     Seeding the scan with the incumbent's candidate (rather than reordering
     the neighbor list) keeps the tie-break without building a list. *)
  let recompute t dst =
    let r = t.r in
    if dst = r.id then false
    else begin
      let inf = infinity_of r in
      let present = Route_table.mem r.table dst in
      let incumbent_nh = if present then Route_table.next_hop_id r.table dst else -1 in
      let incumbent_live = incumbent_nh >= 0 && List.mem incumbent_nh r.up in
      let best_metric = ref inf and best_nh = ref (-1) in
      if incumbent_live then begin
        let cand = candidate t ~neighbor:incumbent_nh ~dst ~inf in
        if cand < inf then begin
          best_metric := cand;
          best_nh := incumbent_nh
        end
      end;
      List.iter
        (fun neighbor ->
          if not (incumbent_live && neighbor = incumbent_nh) then begin
            let cand = candidate t ~neighbor ~dst ~inf in
            if cand < !best_metric then begin
              best_metric := cand;
              best_nh := neighbor
            end
          end)
        r.up;
      let metric = !best_metric and next_hop = !best_nh in
      if not present then begin
        if metric < inf then begin
          Route_table.set r.table ~dst ~metric ~next_hop;
          mark_changed r dst;
          true
        end
        else false
      end
      else begin
        (* A dead route's stored next hop is inert (masked by the metric), so
           only a live next-hop difference counts as a change. *)
        let old_metric = Route_table.metric r.table dst in
        if
          old_metric <> metric
          || (metric < inf && Route_table.next_hop_id r.table dst <> next_hop)
        then begin
          Route_table.set_metric r.table ~dst ~metric;
          if metric < inf then Route_table.set_next_hop r.table ~dst ~next_hop;
          mark_changed r dst;
          true
        end
        else false
      end
    end

  (* The expiry of one cache entry. It captures [heard], so an event left
     over from a discarded cache (the neighbor's link went down and
     [on_link_down] dropped it) acts on that orphan vector, never on the
     neighbor's next cache. *)
  let cache_expire t heard dst =
    if Route_table.Int_vec.get heard dst < infinity_of t.r then begin
      Route_table.Int_vec.set heard dst (infinity_of t.r);
      if recompute t dst then trigger t.r
    end

  let neighbor_cache t neighbor =
    match Route_table.Vec.get t.cache neighbor with
    | Some nc -> nc
    | None ->
      let heard = Route_table.Int_vec.create ~default:(infinity_of t.r) in
      let nc = { heard; timeouts = timeouts t.r ~expire:(cache_expire t heard) } in
      Route_table.Vec.set t.cache neighbor (Some nc);
      nc

  let store_heard t nc (e : entry) =
    let inf = infinity_of t.r in
    let advertised = min e.metric inf in
    Route_table.Int_vec.set nc.heard e.dst advertised;
    if advertised < inf then Route_table.Deadline_vec.refresh nc.timeouts e.dst
    else Route_table.Deadline_vec.cancel nc.timeouts e.dst

  let start t = start t.r ~what:"Dbf.start"

  let on_message t ~from msg =
    if List.mem from t.r.up then begin
      let nc = neighbor_cache t from in
      List.iter (store_heard t nc) msg;
      let changed_any =
        List.fold_left (fun acc (e : entry) -> recompute t e.dst || acc) false msg
      in
      if changed_any then trigger t.r
    end

  let on_link_down t ~neighbor =
    let r = t.r in
    link_down r ~neighbor;
    (* Discard the dead neighbor's vector: it is no longer a candidate. *)
    (match Route_table.Vec.get t.cache neighbor with
    | Some nc ->
      Route_table.iter r.table (Route_table.Deadline_vec.cancel nc.timeouts);
      Route_table.Vec.set t.cache neighbor None
    | None -> ());
    (* Instant switch-over: recompute every known destination from the cache. *)
    let changed_any =
      List.fold_left
        (fun acc dst -> recompute t dst || acc)
        false (Route_table.destinations r.table)
    in
    if changed_any then trigger r

  let on_link_up t ~neighbor = on_link_up t.r ~neighbor

  let next_hop t ~dst = next_hop t.r ~dst

  let metric t ~dst = metric t.r ~dst

  let known_destinations t = Route_table.destinations t.r.table
end
