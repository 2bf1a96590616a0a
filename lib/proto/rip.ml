type message = Dv_core.message

type config = Dv_core.config

let name = "RIP"

let uses_reliable_transport = false

let default_config = Dv_core.default_config

let pp_message = Dv_core.pp_message

let message_kind = Dv_core.message_kind

type t = {
  cfg : config;
  rng : Dessim.Rng.t;
  id : Netsim.Types.node_id;
  actions : message Proto_intf.actions;
  mutable up : Netsim.Types.node_id list;
  table : Route_table.t;
  timeouts : Route_table.Deadline_vec.t;  (* per-destination route timeouts *)
  fire_fns : (unit -> unit) Route_table.Vec.t;
      (* memoised per-destination fire actions *)
  order : (Netsim.Types.node_id, unit) Hashtbl.t;
      (* Destinations in hash-table iteration order. The dense table has no
         insertion order, but the order in which [on_link_down] invalidates
         routes is observable (per-destination trace events at one instant),
         and the original implementation folded over its route Hashtbl. This
         shadow table receives exactly the same insertions, so folding it
         reproduces that order. *)
  changed : (Netsim.Types.node_id, unit) Hashtbl.t;
  mutable trigger : Dv_core.Trigger.t option;
  mutable started : bool;
}

(* message_size_bits must not depend on instance state; use default framing. *)
let message_size_bits msg = Dv_core.message_size_bits Dv_core.default_config msg

let infinity_of t = t.cfg.Dv_core.infinity_metric

let sorted_destinations t = Route_table.destinations t.table

(* Entries advertised to [neighbor], with split horizon / poison reverse. *)
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

let mark_changed t dst =
  Hashtbl.replace t.changed dst ();
  t.actions.Proto_intf.route_changed dst

(* Lazy cancel: the outstanding fire event (if any) observes [inactive] and
   falls silent — no tombstone is left in the scheduler queue. *)
let cancel_timeout t dst = Route_table.Deadline_vec.cancel t.timeouts dst

let expire t dst =
  if Route_table.metric t.table dst < infinity_of t then begin
    Route_table.set_metric t.table ~dst ~metric:(infinity_of t);
    mark_changed t dst;
    trigger t
  end

(* The single outstanding fire event per destination. On fire: cancelled
   slots disarm silently; a deadline pushed into the future (the common case
   — the route was refreshed since this event was armed) re-arms for the
   remaining delay; otherwise the route really timed out. The [now + delay >
   now] guard keeps a sub-ulp residue from chaining a zero-advance event at
   the same instant forever. *)
let rec timer_fire t dst () =
  Route_table.Deadline_vec.set_armed t.timeouts dst false;
  let d = Route_table.Deadline_vec.get t.timeouts dst in
  if d <> Route_table.Deadline_vec.inactive then begin
    let now = t.actions.Proto_intf.now () in
    let delay = d -. now in
    if delay > 0. && now +. delay > now then begin
      Route_table.Deadline_vec.set_armed t.timeouts dst true;
      ignore (t.actions.Proto_intf.after delay (fire_fn t dst))
    end
    else begin
      Route_table.Deadline_vec.cancel t.timeouts dst;
      expire t dst
    end
  end

(* The fire closure for [dst], built once and reused for the slot's whole
   life: resets happen for every entry of every update from the current next
   hop, so a fresh closure per reset would dominate the control plane's
   allocation. *)
and fire_fn t dst =
  let f = Route_table.Vec.get t.fire_fns dst in
  if f != Route_table.nop then f
  else begin
    let f = timer_fire t dst in
    Route_table.Vec.set t.fire_fns dst f;
    f
  end

(* Refresh in place: writing the new deadline is the whole steady-state
   cost. A scheduler event is armed only when none is outstanding; a refresh
   can only move the deadline forward of the armed event's fire time (the
   timeout is constant), so the chain always terminates on the latest
   deadline. *)
let reset_timeout t dst =
  Route_table.Deadline_vec.set t.timeouts dst
    (t.actions.Proto_intf.now () +. t.cfg.Dv_core.timeout);
  if not (Route_table.Deadline_vec.armed t.timeouts dst) then begin
    Route_table.Deadline_vec.set_armed t.timeouts dst true;
    ignore (t.actions.Proto_intf.after t.cfg.Dv_core.timeout (fire_fn t dst))
  end

(* Returns true when the route changed (caller batches the trigger request). *)
let process_entry t ~from:neighbor (e : Dv_core.entry) =
  if e.dst = t.id then false
  else begin
    let inf = infinity_of t in
    let advertised = min e.metric inf in
    let new_metric = min (advertised + 1) inf in
    if not (Route_table.mem t.table e.dst) then begin
      if new_metric < inf then begin
        Route_table.set t.table ~dst:e.dst ~metric:new_metric ~next_hop:neighbor;
        Hashtbl.replace t.order e.dst ();
        reset_timeout t e.dst;
        mark_changed t e.dst;
        true
      end
      else false
    end
    else if Route_table.next_hop_id t.table e.dst = neighbor then begin
      if new_metric < inf then reset_timeout t e.dst else cancel_timeout t e.dst;
      if new_metric <> Route_table.metric t.table e.dst then begin
        Route_table.set_metric t.table ~dst:e.dst ~metric:new_metric;
        mark_changed t e.dst;
        true
      end
      else false
    end
    else if new_metric < Route_table.metric t.table e.dst then begin
      Route_table.set t.table ~dst:e.dst ~metric:new_metric ~next_hop:neighbor;
      reset_timeout t e.dst;
      mark_changed t e.dst;
      true
    end
    else false
  end

let create cfg ~rng ~id ~neighbors ~actions =
  let t =
    {
      cfg;
      rng;
      id;
      actions;
      up = List.sort compare neighbors;
      table = Route_table.create ();
      timeouts = Route_table.Deadline_vec.create ();
      fire_fns = Route_table.Vec.create ~default:Route_table.nop;
      order = Hashtbl.create 64;
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
  (* The full table supersedes any pending triggered update. *)
  (match t.trigger with
  | Some tr -> Dv_core.Trigger.note_full_update_sent tr
  | None -> ());
  Hashtbl.reset t.changed;
  ignore (t.actions.Proto_intf.after (Dv_core.jittered_period t.rng t.cfg) (periodic t))

let start t =
  if t.started then invalid_arg "Rip.start: already started";
  t.started <- true;
  Route_table.set t.table ~dst:t.id ~metric:0 ~next_hop:(-1);
  Hashtbl.replace t.order t.id ();
  (* Announce quickly on boot (RFC request/response), then settle into the
     jittered periodic cycle at a random phase. *)
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
    let changed_any =
      List.fold_left (fun acc e -> process_entry t ~from e || acc) false msg
    in
    if changed_any then trigger t
  end

let on_link_down t ~neighbor =
  t.up <- List.filter (fun n -> n <> neighbor) t.up;
  let invalidate dst () changed =
    if
      Route_table.next_hop_id t.table dst = neighbor
      && Route_table.metric t.table dst < infinity_of t
    then begin
      Route_table.set_metric t.table ~dst ~metric:(infinity_of t);
      cancel_timeout t dst;
      mark_changed t dst;
      true
    end
    else changed
  in
  let changed_any = Hashtbl.fold invalidate t.order false in
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
