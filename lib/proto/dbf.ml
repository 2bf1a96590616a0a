type message = Dv_core.message

type config = Dv_core.config

let name = "DBF"

let uses_reliable_transport = false

let default_config = Dv_core.default_config

let pp_message = Dv_core.pp_message

let message_kind = Dv_core.message_kind

let message_size_bits msg = Dv_core.message_size_bits Dv_core.default_config msg

(* One neighbor's adj-RIB-in: the vector of metrics last heard from it,
   dense by destination id. A heard metric of [infinity_metric] and a
   never-heard destination are indistinguishable to every consumer (both
   mean "this neighbor offers no route"), so the vector needs no separate
   presence bit — infinity is the fill value. *)
type neighbor_cache = {
  heard : Route_table.Int_vec.t;
  ctimeout : Route_table.Deadline_vec.t;
  fire_fns : (unit -> unit) Route_table.Vec.t;
      (* memoised per-destination fire actions *)
}

type t = {
  cfg : config;
  rng : Dessim.Rng.t;
  id : Netsim.Types.node_id;
  actions : message Proto_intf.actions;
  mutable up : Netsim.Types.node_id list;
  mutable cache : neighbor_cache option array;
      (* dense by neighbor id: [recompute] probes every up neighbor for
         every destination, so this lookup must not hash or allocate *)
  table : Route_table.t;
  changed : (Netsim.Types.node_id, unit) Hashtbl.t;
  mutable trigger : Dv_core.Trigger.t option;
  mutable started : bool;
}

let infinity_of t = t.cfg.Dv_core.infinity_metric

let cache_slot t neighbor =
  if neighbor < Array.length t.cache then t.cache.(neighbor) else None

let set_cache_slot t neighbor slot =
  if neighbor >= Array.length t.cache then begin
    let cap = Array.length t.cache in
    let cap' = max 16 (max (neighbor + 1) (2 * cap)) in
    let bigger = Array.make cap' None in
    Array.blit t.cache 0 bigger 0 cap;
    t.cache <- bigger
  end;
  t.cache.(neighbor) <- slot

let neighbor_cache t neighbor =
  match cache_slot t neighbor with
  | Some nc -> nc
  | None ->
    let nc =
      {
        heard = Route_table.Int_vec.create ~default:(infinity_of t);
        ctimeout = Route_table.Deadline_vec.create ();
        fire_fns = Route_table.Vec.create ~default:Route_table.nop;
      }
    in
    set_cache_slot t neighbor (Some nc);
    nc

let cached_metric t ~neighbor ~dst =
  match cache_slot t neighbor with
  | None -> None
  | Some nc ->
    let heard = Route_table.Int_vec.get nc.heard dst in
    if heard < infinity_of t then Some heard else None

let sorted_destinations t = Route_table.destinations t.table

let entries_for t ~neighbor dsts =
  let entry dst =
    if not (Route_table.mem t.table dst) then None
    else begin
      let metric = Route_table.metric t.table dst in
      let poisoned = Route_table.next_hop_id t.table dst = neighbor in
      let metric =
        if poisoned then infinity_of t else min metric (infinity_of t)
      in
      Some { Dv_core.dst; metric }
    end
  in
  List.filter_map entry dsts

let send_vector t ~neighbor dsts =
  let entries = entries_for t ~neighbor dsts in
  let send_chunk chunk = if chunk <> [] then t.actions.Proto_intf.send neighbor chunk in
  List.iter send_chunk (Dv_core.chunk t.cfg entries)

let send_full t neighbor = send_vector t ~neighbor (sorted_destinations t)

let flush_triggered t =
  let dsts = Hashtbl.fold (fun d () acc -> d :: acc) t.changed [] |> List.sort compare in
  Hashtbl.reset t.changed;
  if dsts <> [] then List.iter (fun n -> send_vector t ~neighbor:n dsts) t.up

let trigger t =
  match t.trigger with Some tr -> Dv_core.Trigger.request tr | None -> ()

(* The metric this router would reach [dst] through [neighbor] at. *)
let candidate t ~neighbor ~dst ~inf =
  match cache_slot t neighbor with
  | None -> inf
  | Some nc -> min (Route_table.Int_vec.get nc.heard dst + 1) inf

(* Recompute the best route to [dst] from the neighbor cache. Prefers the
   incumbent next hop on ties, then the lowest neighbor id, so routes are
   stable and deterministic. Returns true when metric or next hop changed.
   Seeding the scan with the incumbent's candidate (rather than reordering
   the neighbor list) keeps the tie-break without building a list. *)
let recompute t dst =
  if dst = t.id then false
  else begin
    let inf = infinity_of t in
    let present = Route_table.mem t.table dst in
    let incumbent_nh =
      if present then Route_table.next_hop_id t.table dst else -1
    in
    let incumbent_live = incumbent_nh >= 0 && List.mem incumbent_nh t.up in
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
      t.up;
    let metric = !best_metric and next_hop = !best_nh in
    if not present then begin
      if metric < inf then begin
        Route_table.set t.table ~dst ~metric ~next_hop;
        Hashtbl.replace t.changed dst ();
        t.actions.Proto_intf.route_changed dst;
        true
      end
      else false
    end
    else begin
      (* A dead route's stored next hop is inert (masked by the metric), so
         only a live next-hop difference counts as a change. *)
      let old_metric = Route_table.metric t.table dst in
      if
        old_metric <> metric
        || (metric < inf && Route_table.next_hop_id t.table dst <> next_hop)
      then begin
        Route_table.set_metric t.table ~dst ~metric;
        if metric < inf then Route_table.set_next_hop t.table ~dst ~next_hop;
        Hashtbl.replace t.changed dst ();
        t.actions.Proto_intf.route_changed dst;
        true
      end
      else false
    end
  end

let cache_expire t nc ~dst =
  if Route_table.Int_vec.get nc.heard dst < infinity_of t then begin
    Route_table.Int_vec.set nc.heard dst (infinity_of t);
    if recompute t dst then trigger t
  end

(* The single outstanding fire event per (neighbor, dst) slot — the re-arm
   protocol of [Route_table.Deadline_vec] (see Rip.timer_fire; this is the
   same machine over the per-neighbor cache). The closure captures [nc], so
   an event left over from a discarded cache (the neighbor's link went down
   and [on_link_down] dropped the slot) keeps operating on the orphan record
   — exactly the inert late fire the cancel-based implementation produced
   for slots it could not reach. *)
let rec cache_timer_fire t nc dst () =
  Route_table.Deadline_vec.set_armed nc.ctimeout dst false;
  let d = Route_table.Deadline_vec.get nc.ctimeout dst in
  if d <> Route_table.Deadline_vec.inactive then begin
    let now = t.actions.Proto_intf.now () in
    let delay = d -. now in
    if delay > 0. && now +. delay > now then begin
      Route_table.Deadline_vec.set_armed nc.ctimeout dst true;
      ignore (t.actions.Proto_intf.after delay (cache_fire_fn t nc dst))
    end
    else begin
      Route_table.Deadline_vec.cancel nc.ctimeout dst;
      cache_expire t nc ~dst
    end
  end

(* The fire closure for this cache entry, built once and reused for every
   subsequent refresh of the same (neighbor, dst) slot. *)
and cache_fire_fn t nc dst =
  let f = Route_table.Vec.get nc.fire_fns dst in
  if f != Route_table.nop then f
  else begin
    let f = cache_timer_fire t nc dst in
    Route_table.Vec.set nc.fire_fns dst f;
    f
  end

let store_heard t nc (e : Dv_core.entry) =
  let inf = infinity_of t in
  let advertised = min e.metric inf in
  Route_table.Int_vec.set nc.heard e.dst advertised;
  if advertised < inf then begin
    Route_table.Deadline_vec.set nc.ctimeout e.dst
      (t.actions.Proto_intf.now () +. t.cfg.Dv_core.timeout);
    if not (Route_table.Deadline_vec.armed nc.ctimeout e.dst) then begin
      Route_table.Deadline_vec.set_armed nc.ctimeout e.dst true;
      ignore
        (t.actions.Proto_intf.after t.cfg.Dv_core.timeout
           (cache_fire_fn t nc e.dst))
    end
  end
  else Route_table.Deadline_vec.cancel nc.ctimeout e.dst

let create cfg ~rng ~id ~neighbors ~actions =
  let t =
    {
      cfg;
      rng;
      id;
      actions;
      up = List.sort compare neighbors;
      cache = [||];
      table = Route_table.create ();
      changed = Hashtbl.create 16;
      trigger = None;
      started = false;
    }
  in
  t.trigger <-
    Some
      (Dv_core.Trigger.create ~rng ~after:actions.Proto_intf.after
         ~min_delay:cfg.Dv_core.damp_min ~max_delay:cfg.Dv_core.damp_max
         ~flush:(fun () -> flush_triggered t));
  t

let rec periodic t () =
  (* One destination snapshot for the whole round: the table cannot change
     between the per-neighbor sends of a single instant. *)
  let dsts = sorted_destinations t in
  List.iter (fun n -> send_vector t ~neighbor:n dsts) t.up;
  (match t.trigger with
  | Some tr -> Dv_core.Trigger.note_full_update_sent tr
  | None -> ());
  Hashtbl.reset t.changed;
  ignore (t.actions.Proto_intf.after (Dv_core.jittered_period t.rng t.cfg) (periodic t))

let start t =
  if t.started then invalid_arg "Dbf.start: already started";
  t.started <- true;
  Route_table.set t.table ~dst:t.id ~metric:0 ~next_hop:(-1);
  ignore
    (t.actions.Proto_intf.after
       (Dessim.Rng.uniform t.rng 0.01 0.5)
       (fun () -> List.iter (send_full t) t.up));
  ignore
    (t.actions.Proto_intf.after
       (Dessim.Rng.float t.rng t.cfg.Dv_core.period)
       (periodic t))

let on_message t ~from msg =
  if List.mem from t.up then begin
    let nc = neighbor_cache t from in
    List.iter (store_heard t nc) msg;
    let changed_any =
      List.fold_left (fun acc (e : Dv_core.entry) -> recompute t e.dst || acc) false msg
    in
    if changed_any then trigger t
  end

let on_link_down t ~neighbor =
  t.up <- List.filter (fun n -> n <> neighbor) t.up;
  (* Discard the dead neighbor's vector: it is no longer a candidate. *)
  (match cache_slot t neighbor with
  | Some nc ->
    Route_table.iter t.table (fun dst ->
        Route_table.Deadline_vec.cancel nc.ctimeout dst);
    set_cache_slot t neighbor None
  | None -> ());
  (* Instant switch-over: recompute every known destination from the cache. *)
  let changed_any =
    List.fold_left
      (fun acc dst -> recompute t dst || acc)
      false (sorted_destinations t)
  in
  if changed_any then trigger t

let on_link_up t ~neighbor =
  if not (List.mem neighbor t.up) then begin
    t.up <- List.sort compare (neighbor :: t.up);
    send_full t neighbor
  end

let next_hop t ~dst =
  if Route_table.metric t.table dst >= 0
     && Route_table.metric t.table dst < infinity_of t
  then Route_table.next_hop t.table dst
  else None

let metric t ~dst =
  let m = Route_table.metric t.table dst in
  if m >= 0 && m < infinity_of t then Some m else None

let known_destinations t = sorted_destinations t
