type parse_stats = { parsed : int; opaque : int; skipped : int }

type item = Record of Sink.record | Opaque of string

(* A line from a newer schema — valid JSONL record shape ({ts, seq, ev, ...})
   whose event name this build does not know — is not garbage: it must
   survive a read/rewrite cycle so an old binary filtering a new trace does
   not silently destroy events. Such lines become [Opaque] (kept verbatim).
   Only lines that are not records at all (truncated writes, foreign output
   mixed into the stream) are skipped. *)
let looks_like_record j =
  match (Json.member "ts" j, Json.member "seq" j, Json.member "ev" j) with
  | Some _, Some _, Some (Json.String _) -> true
  | _ -> false

let items_of_lines lines =
  let parsed = ref 0 in
  let opaque = ref 0 in
  let skipped = ref 0 in
  let items =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" then None
        else
          (* A malformed line is counted and skipped, never fatal. The parser
             itself returns [None] on bad input; the extra handler is a
             backstop so no future decoder change can take replay down. *)
          match Json.of_string_opt line with
          | exception _ ->
            incr skipped;
            None
          | None ->
            incr skipped;
            None
          | Some j -> (
            match Sink.record_of_json j with
            | Some r ->
              incr parsed;
              Some (Record r)
            | None | (exception _) ->
              if looks_like_record j then begin
                incr opaque;
                Some (Opaque line)
              end
              else begin
                incr skipped;
                None
              end))
      lines
  in
  (items, { parsed = !parsed; opaque = !opaque; skipped = !skipped })

let records_of_items items =
  List.filter_map (function Record r -> Some r | Opaque _ -> None) items

let line_of_item = function
  | Record r -> Json.to_string (Sink.record_to_json r)
  | Opaque line -> line

let of_lines lines =
  let items, stats = items_of_lines lines in
  (records_of_items items, stats)

let of_string s = of_lines (String.split_on_char '\n' s)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let read_file path = of_lines (read_lines path)

(* ---------- aggregate views ---------- *)

let event_counts records =
  let tbl = Hashtbl.create 24 in
  List.iter
    (fun r ->
      let key = Event.name r.Sink.event in
      Hashtbl.replace tbl key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    records;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type totals = {
  sent : int;
  delivered : int;
  drops : (Netsim.Types.drop_reason * int) list;  (* every reason, in order *)
}

let totals ?flow records =
  let wanted f = match flow with None -> true | Some i -> i = f in
  let sent = ref 0 in
  let delivered = ref 0 in
  let drops = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match r.Sink.event with
      | Event.Packet_sent { flow; _ } when wanted flow -> incr sent
      | Event.Packet_delivered { flow; _ } when wanted flow -> incr delivered
      | Event.Packet_dropped { flow; reason; _ } when wanted flow ->
        Hashtbl.replace drops reason
          (1 + Option.value ~default:0 (Hashtbl.find_opt drops reason))
      | _ -> ())
    records;
  {
    sent = !sent;
    delivered = !delivered;
    drops =
      List.map
        (fun reason ->
          (reason, Option.value ~default:0 (Hashtbl.find_opt drops reason)))
        Netsim.Types.all_drop_reasons;
  }

let total_drops t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.drops

let in_flight t = t.sent - t.delivered - total_drops t

(* Per-cause drop timeline: bucketed drop counts over time. *)

type timeline = {
  t0 : float;  (* left edge of the first bucket *)
  bucket_width : float;
  rows : (float * (Netsim.Types.drop_reason * int) list) list;
      (* (bucket start time, counts per reason); only non-empty buckets *)
}

let drop_timeline ?(bucket = 1.0) records =
  if bucket <= 0. then invalid_arg "Replay.drop_timeline: bucket width";
  let drops =
    List.filter_map
      (fun r ->
        match r.Sink.event with
        | Event.Packet_dropped { reason; _ } -> Some (r.Sink.time, reason)
        | _ -> None)
      records
  in
  match drops with
  | [] -> { t0 = 0.; bucket_width = bucket; rows = [] }
  | (first, _) :: _ ->
    let t0 =
      Float.of_int (int_of_float (Float.floor (first /. bucket)))
      *. bucket
    in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (time, reason) ->
        let idx = int_of_float (Float.floor ((time -. t0) /. bucket)) in
        let key = (idx, reason) in
        Hashtbl.replace tbl key
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
      drops;
    let indices =
      Hashtbl.fold (fun (i, _) _ acc -> i :: acc) tbl []
      |> List.sort_uniq compare
    in
    let rows =
      List.map
        (fun i ->
          ( t0 +. (float_of_int i *. bucket),
            List.filter_map
              (fun reason ->
                match Hashtbl.find_opt tbl (i, reason) with
                | Some n -> Some (reason, n)
                | None -> None)
              Netsim.Types.all_drop_reasons ))
        indices
    in
    { t0; bucket_width = bucket; rows }

(* Loop-episode report, reconstructed from Loop_enter / Loop_exit pairs. *)

type loop_episode = {
  le_flow : int;
  le_cycle : int list;
  le_started : float;
  le_ended : float option;  (* [None]: still looping at end of trace *)
}

let loop_report records =
  let open_eps = Hashtbl.create 8 in
  (* flow -> (cycle, started) *)
  let finished = ref [] in
  List.iter
    (fun r ->
      match r.Sink.event with
      | Event.Loop_enter { flow; cycle } ->
        (match Hashtbl.find_opt open_eps flow with
        | Some (c, t) ->
          (* A new cycle without an exit closes the previous episode. *)
          finished :=
            { le_flow = flow; le_cycle = c; le_started = t; le_ended = Some r.Sink.time }
            :: !finished
        | None -> ());
        Hashtbl.replace open_eps flow (cycle, r.Sink.time)
      | Event.Loop_exit { flow; cycle; _ } ->
        (match Hashtbl.find_opt open_eps flow with
        | Some (c, t) ->
          Hashtbl.remove open_eps flow;
          finished :=
            {
              le_flow = flow;
              le_cycle = (if c = [] then cycle else c);
              le_started = t;
              le_ended = Some r.Sink.time;
            }
            :: !finished
        | None ->
          (* Exit without a recorded enter (trace truncated by a ring
             buffer): report it with an unknown start. *)
          finished :=
            {
              le_flow = flow;
              le_cycle = cycle;
              le_started = Float.nan;
              le_ended = Some r.Sink.time;
            }
            :: !finished)
      | _ -> ())
    records;
  Hashtbl.iter
    (fun flow (cycle, t) ->
      finished :=
        { le_flow = flow; le_cycle = cycle; le_started = t; le_ended = None }
        :: !finished)
    open_eps;
  List.sort
    (fun a b ->
      match compare a.le_started b.le_started with
      | 0 -> compare a.le_flow b.le_flow
      | c -> c)
    !finished

let episode_duration e =
  match e.le_ended with
  | Some ended -> Some (ended -. e.le_started)
  | None -> None

(* Link-outage report, reconstructed from Link_failed / Link_healed pairs.
   The offline audit for flap schedules: a run with [Fault.Schedule.flap]
   active should show exactly [cycles] finished episodes on the flapped link,
   each [down] seconds long. *)

type link_episode = {
  lk_u : int;
  lk_v : int;  (* canonical: lk_u < lk_v *)
  lk_down : float;
  lk_up : float option;  (* [None]: still down at end of trace *)
}

let link_report records =
  let canon u v = if u <= v then (u, v) else (v, u) in
  let open_eps = Hashtbl.create 8 in
  (* (u, v) -> down time *)
  let finished = ref [] in
  List.iter
    (fun r ->
      match r.Sink.event with
      | Event.Link_failed { u; v } ->
        let key = canon u v in
        (match Hashtbl.find_opt open_eps key with
        | Some t ->
          (* A second failure without a heal closes the previous episode at
             the same instant — the link never came up in between. *)
          let lk_u, lk_v = key in
          finished := { lk_u; lk_v; lk_down = t; lk_up = Some r.Sink.time } :: !finished
        | None -> ());
        Hashtbl.replace open_eps key r.Sink.time
      | Event.Link_healed { u; v } -> (
        let key = canon u v in
        match Hashtbl.find_opt open_eps key with
        | Some t ->
          Hashtbl.remove open_eps key;
          let lk_u, lk_v = key in
          finished := { lk_u; lk_v; lk_down = t; lk_up = Some r.Sink.time } :: !finished
        | None ->
          (* Heal without a recorded failure (trace truncated by a ring
             buffer): report it with an unknown start. *)
          let lk_u, lk_v = key in
          finished :=
            { lk_u; lk_v; lk_down = Float.nan; lk_up = Some r.Sink.time }
            :: !finished)
      | _ -> ())
    records;
  Hashtbl.iter
    (fun (lk_u, lk_v) t ->
      finished := { lk_u; lk_v; lk_down = t; lk_up = None } :: !finished)
    open_eps;
  List.sort
    (fun a b ->
      match compare a.lk_down b.lk_down with
      | 0 -> compare (a.lk_u, a.lk_v) (b.lk_u, b.lk_v)
      | c -> c)
    !finished

let link_episode_duration e =
  match e.lk_up with Some up -> Some (up -. e.lk_down) | None -> None

(* Fast-reroute report, reconstructed from the [Frr_*] events.

   An {e episode} is one router's local-detection window: it opens at the
   first [Frr_activated] on the node, tracks the set of neighbors the node
   currently believes down, and closes when the last of them heals
   ([Link_healed]). Backup-forwarded packets at the node during the window
   are attributed to the episode — the "packets saved" of the resilience
   study. Forwards outside any window (graceful degradation at routers that
   never detected a failure themselves, routing around a withdrawn primary)
   count only toward the totals.

   [Frr_exhausted] events — a packet met an unusable primary {e and} an
   unusable backup — are clustered into windows by inter-arrival gap, which
   renders the trace's residual loss bursts. *)

type frr_episode = {
  fe_node : int;
  fe_started : float;
  fe_ended : float option;  (* [None]: still detected-down at end of trace *)
  fe_forwards : int;  (* backup-forwarded events at this node in the window *)
  fe_packets : int;  (* distinct packets among them *)
}

type frr_window = { fw_started : float; fw_ended : float; fw_count : int }

type frr_summary = {
  fr_installs : int;
  fr_activations : int;
  fr_forwards : int;
  fr_exhausted : int;
  fr_episodes : frr_episode list;  (* by start time *)
  fr_exhausted_windows : frr_window list;  (* by start time *)
}

type open_episode = {
  oe_started : float;
  mutable oe_down : int list;  (* neighbors currently believed down *)
  mutable oe_forwards : int;
  oe_pkts : (int, unit) Hashtbl.t;
}

let frr_report ?(gap = 1.0) records =
  if gap <= 0. then invalid_arg "Replay.frr_report: gap";
  let installs = ref 0 in
  let activations = ref 0 in
  let forwards = ref 0 in
  let exhausted = ref 0 in
  let open_eps = Hashtbl.create 8 in
  (* node -> open_episode *)
  let episodes = ref [] in
  let exh_times = ref [] in
  let close node (oe : open_episode) ended =
    Hashtbl.remove open_eps node;
    episodes :=
      {
        fe_node = node;
        fe_started = oe.oe_started;
        fe_ended = ended;
        fe_forwards = oe.oe_forwards;
        fe_packets = Hashtbl.length oe.oe_pkts;
      }
      :: !episodes
  in
  let heal_side time node neighbor =
    match Hashtbl.find_opt open_eps node with
    | Some oe when List.mem neighbor oe.oe_down ->
      oe.oe_down <- List.filter (fun x -> x <> neighbor) oe.oe_down;
      if oe.oe_down = [] then close node oe (Some time)
    | Some _ | None -> ()
  in
  List.iter
    (fun r ->
      match r.Sink.event with
      | Event.Frr_installed _ -> incr installs
      | Event.Frr_activated { node; neighbor } ->
        incr activations;
        let oe =
          match Hashtbl.find_opt open_eps node with
          | Some oe -> oe
          | None ->
            let oe =
              {
                oe_started = r.Sink.time;
                oe_down = [];
                oe_forwards = 0;
                oe_pkts = Hashtbl.create 32;
              }
            in
            Hashtbl.replace open_eps node oe;
            oe
        in
        if not (List.mem neighbor oe.oe_down) then
          oe.oe_down <- neighbor :: oe.oe_down
      | Event.Frr_forwarded { pkt; node; _ } -> (
        incr forwards;
        match Hashtbl.find_opt open_eps node with
        | Some oe ->
          oe.oe_forwards <- oe.oe_forwards + 1;
          Hashtbl.replace oe.oe_pkts pkt ()
        | None -> ())
      | Event.Frr_exhausted _ ->
        incr exhausted;
        exh_times := r.Sink.time :: !exh_times
      | Event.Link_healed { u; v } ->
        heal_side r.Sink.time u v;
        heal_side r.Sink.time v u
      | _ -> ())
    records;
  Hashtbl.iter (fun node oe -> close node oe None) open_eps;
  let windows =
    let rec cluster acc = function
      | [] -> List.rev acc
      | t :: rest -> (
        match acc with
        | { fw_ended; fw_count; fw_started } :: acc' when t -. fw_ended <= gap ->
          cluster ({ fw_started; fw_ended = t; fw_count = fw_count + 1 } :: acc') rest
        | _ -> cluster ({ fw_started = t; fw_ended = t; fw_count = 1 } :: acc) rest)
    in
    cluster [] (List.sort compare !exh_times)
  in
  {
    fr_installs = !installs;
    fr_activations = !activations;
    fr_forwards = !forwards;
    fr_exhausted = !exhausted;
    fr_episodes =
      List.sort
        (fun a b ->
          match compare a.fe_started b.fe_started with
          | 0 -> compare a.fe_node b.fe_node
          | c -> c)
        !episodes;
    fr_exhausted_windows = windows;
  }

(* ---------- rendering ---------- *)

let pp_totals ppf t =
  Fmt.pf ppf "sent=%d delivered=%d %a (in flight %d)" t.sent t.delivered
    Fmt.(
      list ~sep:(any " ") (fun ppf (reason, n) ->
          pf ppf "drops[%a]=%d" Netsim.Types.pp_drop_reason reason n))
    t.drops (in_flight t)

let pp_timeline ppf tl =
  if tl.rows = [] then Fmt.pf ppf "no drops recorded"
  else begin
    Fmt.pf ppf "@[<v>%-10s %s@," "t"
      (String.concat " "
         (List.map
            (fun r -> Printf.sprintf "%14s" (Netsim.Types.string_of_drop_reason r))
            Netsim.Types.all_drop_reasons));
    Fmt.pf ppf "%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf (t, counts) ->
           Fmt.pf ppf "%-10.1f %s" t
             (String.concat " "
                (List.map
                   (fun r ->
                     let n =
                       Option.value ~default:0 (List.assoc_opt r counts)
                     in
                     Printf.sprintf "%14d" n)
                   Netsim.Types.all_drop_reasons))))
      tl.rows
  end

let pp_link_episode ppf e =
  match e.lk_up with
  | Some up when Float.is_nan e.lk_down ->
    Fmt.pf ppf "link %d-%d: healed t=%.2f (failure not in trace)" e.lk_u e.lk_v
      up
  | Some up ->
    Fmt.pf ppf "link %d-%d: down from t=%.2f to t=%.2f (%.2fs)" e.lk_u e.lk_v
      e.lk_down up (up -. e.lk_down)
  | None ->
    Fmt.pf ppf "link %d-%d: down from t=%.2f (still down at end of trace)"
      e.lk_u e.lk_v e.lk_down

let pp_frr_episode ppf e =
  match e.fe_ended with
  | Some ended ->
    Fmt.pf ppf
      "node %d: reroute active t=%.2f to t=%.2f (%.2fs), %d packets saved \
       over %d backup hops"
      e.fe_node e.fe_started ended (ended -. e.fe_started) e.fe_packets
      e.fe_forwards
  | None ->
    Fmt.pf ppf
      "node %d: reroute active from t=%.2f (unresolved at end of trace), %d \
       packets saved over %d backup hops"
      e.fe_node e.fe_started e.fe_packets e.fe_forwards

let pp_frr_window ppf w =
  Fmt.pf ppf "t=%.2f to t=%.2f: %d packets met an exhausted backup" w.fw_started
    w.fw_ended w.fw_count

let pp_loop_episode ppf e =
  match e.le_ended with
  | Some ended when Float.is_nan e.le_started ->
    Fmt.pf ppf "flow %d: loop %a ended t=%.2f (start not in trace)" e.le_flow
      Netsim.Types.pp_path e.le_cycle ended
  | Some ended ->
    Fmt.pf ppf "flow %d: loop %a from t=%.2f to t=%.2f (%.2fs)" e.le_flow
      Netsim.Types.pp_path e.le_cycle e.le_started ended
      (ended -. e.le_started)
  | None ->
    Fmt.pf ppf "flow %d: loop %a from t=%.2f (unresolved at end of trace)"
      e.le_flow Netsim.Types.pp_path e.le_cycle e.le_started
