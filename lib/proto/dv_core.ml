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

(* The one splitter behind [chunk] and the router's sender. [split cfg
   ~entry ~emit xs] walks [xs] once, maps each element through [entry], and
   hands [emit] the entries in order, [cfg.max_entries] to a message. [take]
   builds a message front to back ([@tail_mod_cons]), so nothing is
   reversed or copied, and leaves the unread rest of [xs] in the cursor once
   per message. *)
type 'a cursor = { mutable rest : 'a list }

let[@tail_mod_cons] rec take cur ~entry n xs =
  match xs with
  | x :: rest when n > 0 -> entry x :: take cur ~entry (n - 1) rest
  | _ ->
    cur.rest <- xs;
    []

let rec split_rest cfg cur ~entry ~emit =
  match cur.rest with
  | [] -> ()
  | xs ->
    emit (take cur ~entry cfg.max_entries xs);
    split_rest cfg cur ~entry ~emit

let split cfg ~entry ~emit xs = split_rest cfg { rest = xs } ~entry ~emit

let chunk cfg entries =
  let msgs = ref [] in
  split cfg ~entry:Fun.id ~emit:(fun m -> msgs := m :: !msgs) entries;
  List.rev !msgs

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
  changed : Route_table.Bitset.t;
      (* destinations changed since the last update went out; a member is
         never removed alone, so [changed_members] lists each bit once *)
  mutable changed_members : Netsim.Types.node_id list;
  mutable trigger : Trigger.t option;
  mutable started : bool;
}

let infinity_of r = r.cfg.infinity_metric

let rec is_up n = function [] -> false | m :: rest -> m = n || is_up n rest

(* The entry for [dst] advertised to [neighbor], with split horizon / poison
   reverse. *)
let advertised r ~neighbor dst =
  let inf = infinity_of r in
  let metric =
    if Route_table.next_hop_id r.table dst = neighbor then inf
    else Int.min (Route_table.metric r.table dst) inf
  in
  { dst; metric }

(* [dsts]' entries for [neighbor], sent as messages of at most
   [max_entries]. Every destination in [dsts] has a route installed: [dsts]
   is the table's destination list or the changed set, which receives a
   destination only once its route is written, and the table never drops
   one. *)
let send_vector r ~neighbor dsts =
  split r.cfg ~entry:(advertised r ~neighbor)
    ~emit:(r.actions.Proto_intf.send neighbor)
    dsts

let send_full r neighbor = send_vector r ~neighbor (Route_table.destinations r.table)

let clear_changed r =
  List.iter (Route_table.Bitset.remove r.changed) r.changed_members;
  r.changed_members <- []

let flush_triggered r =
  let dsts = List.sort Int.compare r.changed_members in
  clear_changed r;
  match dsts with [] -> () | _ -> List.iter (fun n -> send_vector r ~neighbor:n dsts) r.up

let trigger r =
  match r.trigger with Some tr -> Trigger.request tr | None -> ()

let mark_changed r dst =
  if not (Route_table.Bitset.mem r.changed dst) then begin
    Route_table.Bitset.add r.changed dst;
    r.changed_members <- dst :: r.changed_members
  end;
  r.actions.Proto_intf.route_changed dst

let router cfg ~rng ~id ~neighbors ~actions =
  let r =
    {
      cfg;
      rng;
      id;
      actions;
      up = List.sort Int.compare neighbors;
      table = Route_table.create ();
      changed = Route_table.Bitset.create ();
      changed_members = [];
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
  clear_changed r;
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
  if not (is_up neighbor r.up) then begin
    r.up <- List.sort Int.compare (neighbor :: r.up);
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
  let process_entry t ~from:neighbor ~now (e : entry) =
    let r = t.r in
    if e.dst = r.id then false
    else begin
      let inf = infinity_of r in
      let advertised = Int.min e.metric inf in
      let new_metric = Int.min (advertised + 1) inf in
      if not (Route_table.mem r.table e.dst) then begin
        if new_metric < inf then begin
          Route_table.set r.table ~dst:e.dst ~metric:new_metric ~next_hop:neighbor;
          Hashtbl.replace t.order e.dst ();
          Route_table.Deadline_vec.refresh t.timeouts ~now e.dst;
          mark_changed r e.dst;
          true
        end
        else false
      end
      else if Route_table.next_hop_id r.table e.dst = neighbor then begin
        if new_metric < inf then Route_table.Deadline_vec.refresh t.timeouts ~now e.dst
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
        Route_table.Deadline_vec.refresh t.timeouts ~now e.dst;
        mark_changed r e.dst;
        true
      end
      else false
    end

  let start t =
    start t.r ~what:"Rip.start";
    Hashtbl.replace t.order t.r.id ()

  let on_message t ~from msg =
    if is_up from t.r.up then begin
      let now = t.r.actions.Proto_intf.now () in
      let changed_any =
        List.fold_left (fun acc e -> process_entry t ~from ~now e || acc) false msg
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
    moved : Route_table.Bitset.t;
        (* while [on_message] runs: the destinations whose heard metric the
           message changed; empty between handlers *)
  }

  let create cfg ~rng ~id ~neighbors ~actions =
    {
      r = router cfg ~rng ~id ~neighbors ~actions;
      cache = Route_table.Vec.create ~default:None;
      moved = Route_table.Bitset.create ();
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
    | Some nc -> Int.min (Route_table.Int_vec.get nc.heard dst + 1) inf

  (* The neighbor in [up] offering the cheapest route to [dst] below
     [inf], or -1 when none does. A tie goes to [incumbent], else to the
     lowest id: [up] is ascending, and a later neighbor replaces the best so
     far only when strictly cheaper or when it is the incumbent. *)
  let rec best_neighbor t ~dst ~inf ~incumbent best best_nh = function
    | [] -> best_nh
    | neighbor :: rest ->
      let cand = candidate t ~neighbor ~dst ~inf in
      if cand < best || (cand = best && cand < inf && neighbor = incumbent) then
        best_neighbor t ~dst ~inf ~incumbent cand neighbor rest
      else best_neighbor t ~dst ~inf ~incumbent best best_nh rest

  (* Recompute the best route to [dst] from the neighbor cache. Prefers the
     incumbent next hop on ties, then the lowest neighbor id, so routes are
     stable and deterministic. Returns true when metric or next hop changed.
     The result depends only on [up], the heard vectors' entries for [dst]
     and the installed route to [dst], and it is idempotent: a second call
     with none of them changed returns false and does nothing. *)
  let recompute t dst =
    let r = t.r in
    if dst = r.id then false
    else begin
      let inf = infinity_of r in
      let present = Route_table.mem r.table dst in
      let incumbent = if present then Route_table.next_hop_id r.table dst else -1 in
      let next_hop = best_neighbor t ~dst ~inf ~incumbent inf (-1) r.up in
      let metric =
        if next_hop < 0 then inf else candidate t ~neighbor:next_hop ~dst ~inf
      in
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

  (* Store every entry of a heard vector, refreshing or cancelling its
     timeout, and mark in [t.moved] each destination whose stored metric
     changed. Returns whether any did. *)
  let rec store_heard t nc ~now moved_any = function
    | [] -> moved_any
    | (e : entry) :: rest ->
      let inf = infinity_of t.r in
      let advertised = Int.min e.metric inf in
      let moved = Route_table.Int_vec.get nc.heard e.dst <> advertised in
      if moved then begin
        Route_table.Int_vec.set nc.heard e.dst advertised;
        Route_table.Bitset.add t.moved e.dst
      end;
      if advertised < inf then Route_table.Deadline_vec.refresh nc.timeouts ~now e.dst
      else Route_table.Deadline_vec.cancel nc.timeouts e.dst;
      store_heard t nc ~now (moved_any || moved) rest

  (* Recompute, in message order, each destination marked in [t.moved],
     clearing its mark. Returns whether any route changed. *)
  let rec recompute_moved t changed_any = function
    | [] -> changed_any
    | (e : entry) :: rest ->
      if Route_table.Bitset.mem t.moved e.dst then begin
        Route_table.Bitset.remove t.moved e.dst;
        let changed = recompute t e.dst in
        recompute_moved t (changed_any || changed) rest
      end
      else recompute_moved t changed_any rest

  let start t = start t.r ~what:"Dbf.start"

  (* Only destinations whose heard metric moved are recomputed. That skips
     no route change: after every handler returns, each route is the one
     [recompute] picks from the heard vectors and [up], because every write
     to either recomputes what it touched ([store_heard] here,
     [cache_expire], [on_link_down]; a neighbor that comes up has no cache
     yet). So [recompute] on an unmoved destination returns false and has no
     effect. Most heard entries repeat the cached value: the periodic update
     re-advertises the whole table. The whole vector is stored before any
     recompute, so its timeouts are armed before any work a route change
     schedules (an FRR sweep), and events falling due at one instant keep
     that order. *)
  let on_message t ~from msg =
    if is_up from t.r.up then begin
      let nc = neighbor_cache t from in
      let now = t.r.actions.Proto_intf.now () in
      if store_heard t nc ~now false msg && recompute_moved t false msg then trigger t.r
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
