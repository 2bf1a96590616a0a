type mrai_scope = Per_neighbor | Per_destination

type rfd_config = {
  half_life : float;
  cutoff : float;
  reuse : float;
  max_suppress : float;
  withdrawal_penalty : float;
  update_penalty : float;
}

let default_rfd =
  {
    half_life = 60.;
    cutoff = 2.;
    reuse = 0.75;
    max_suppress = 240.;
    withdrawal_penalty = 1.;
    update_penalty = 0.5;
  }

type config = {
  mrai_mean : float;
  mrai_jitter : float;
  mrai_scope : mrai_scope;
  rfd : rfd_config option;
  header_bytes : int;
  dst_bytes : int;
  hop_bytes : int;
}

type message =
  | Update of { dst : Netsim.Types.node_id; path : Netsim.Types.node_id list }
  | Withdraw of { dsts : Netsim.Types.node_id list }

let name = "BGP"

let uses_reliable_transport = true

let default_config =
  {
    mrai_mean = 30.;
    mrai_jitter = 0.25;
    mrai_scope = Per_neighbor;
    rfd = None;
    header_bytes = 19;
    dst_bytes = 4;
    hop_bytes = 2;
  }

let fast_config = { default_config with mrai_mean = 3. }

let message_size_bits msg =
  let c = default_config in
  let bytes =
    match msg with
    | Update { path; _ } -> c.header_bytes + c.dst_bytes + (c.hop_bytes * List.length path)
    | Withdraw { dsts } -> c.header_bytes + (c.dst_bytes * List.length dsts)
  in
  8 * bytes

let message_kind = function
  | Update _ -> Proto_intf.Update
  | Withdraw _ -> Proto_intf.Withdrawal

let pp_message ppf = function
  | Update { dst; path } ->
    Fmt.pf ppf "update dst=%d path=%a" dst Netsim.Types.pp_path path
  | Withdraw { dsts } ->
    Fmt.pf ppf "withdraw %a" Fmt.(list ~sep:(any ",") int) dsts

(* An MRAI gate. While [closed], changed destinations wait in its pending
   set: a bitset for membership plus the list of members. Dropping a pending
   destination clears only its bit, so the list may hold stale or repeated
   entries; the flush takes each member whose bit is still set, clearing the
   bit as it goes, so every pending destination goes out once. *)
type gate = {
  mutable closed : bool;
  queued : Route_table.Bitset.t;
  mutable members : Netsim.Types.node_id list;
}

(* Route-flap-damping bookkeeping, per (neighbor, destination): an
   exponentially decaying penalty; crossing [cutoff] suppresses the rib
   entry until the penalty decays below [reuse]. *)
type rfd_entry = {
  mutable penalty : float;
  mutable stamp : float;  (* when [penalty] was last materialized *)
  mutable suppressed : bool;
}

(* The session with one topology neighbor. Its Adj-RIB-in is dense by
   destination: the path exactly as the neighbor advertised it (neighbor
   first, dst last) and that path's length, -1 meaning no entry. *)
type peer = {
  peer_id : Netsim.Types.node_id;
  mutable up : bool;
  rib_path : Netsim.Types.node_id list Route_table.Vec.t;
  rib_len : Route_table.Int_vec.t;
  mutable rib_hi : int;  (* 1 + highest destination ever stored *)
  mutable gate : gate;  (* Per_neighbor scope *)
}

type t = {
  cfg : config;
  rng : Dessim.Rng.t;
  id : Netsim.Types.node_id;
  actions : message Proto_intf.actions;
  peers : peer array;  (* ascending neighbor id; fixed for the instance *)
  slot_of : Route_table.Int_vec.t;  (* neighbor id -> index in [peers], or -1 *)
  fib : Route_table.t;
      (* the selected route: metric = received path length (-1: no route),
         next hop = the neighbor it came from *)
  best_rx : Netsim.Types.node_id list Route_table.Vec.t;
      (* the selected path as that neighbor advertised it *)
  pd_gates : (Netsim.Types.node_id * Netsim.Types.node_id, gate) Hashtbl.t;
      (* Per_destination scope, keyed by (neighbor, dst) *)
  rfd_table : (Netsim.Types.node_id * Netsim.Types.node_id, rfd_entry) Hashtbl.t;
  mutable started : bool;
}

let new_gate () =
  { closed = false; queued = Route_table.Bitset.create (); members = [] }

let create cfg ~rng ~id ~neighbors ~actions =
  let ids = Array.of_list (List.sort_uniq Int.compare neighbors) in
  let slot_of = Route_table.Int_vec.create ~default:(-1) in
  Array.iteri (fun s n -> Route_table.Int_vec.set slot_of n s) ids;
  let peer n =
    {
      peer_id = n;
      up = true;
      rib_path = Route_table.Vec.create ~default:[];
      rib_len = Route_table.Int_vec.create ~default:(-1);
      rib_hi = 0;
      gate = new_gate ();
    }
  in
  {
    cfg;
    rng;
    id;
    actions;
    peers = Array.map peer ids;
    slot_of;
    fib = Route_table.create ();
    best_rx = Route_table.Vec.create ~default:[];
    pd_gates = Hashtbl.create 64;
    rfd_table = Hashtbl.create 64;
    started = false;
  }

let slot t n = Route_table.Int_vec.get t.slot_of n

let has_route t dst = Route_table.metric t.fib dst >= 0

(* The length of [path], or -1 when it passes through [id]. *)
let rec length_unless_through (id : Netsim.Types.node_id) n = function
  | [] -> n
  | hop :: rest -> if hop = id then -1 else length_unless_through id (n + 1) rest

let same_path (a : Netsim.Types.node_id list) b = a == b || List.equal Int.equal a b

let rib_in_path t ~neighbor ~dst =
  let s = slot t neighbor in
  if s < 0 || Route_table.Int_vec.get t.peers.(s).rib_len dst < 0 then None
  else Some (Route_table.Vec.get t.peers.(s).rib_path dst)

let my_path t dst =
  if dst = t.id then [ t.id ]
  else if has_route t dst then t.id :: Route_table.Vec.get t.best_rx dst
  else invalid_arg "Bgp.my_path: no route"

let best_path t ~dst =
  if dst = t.id || has_route t dst then Some (my_path t dst) else None

let mrai_delay t =
  let lo = t.cfg.mrai_mean *. (1. -. t.cfg.mrai_jitter) in
  let hi = t.cfg.mrai_mean *. (1. +. t.cfg.mrai_jitter) in
  Dessim.Rng.uniform t.rng lo hi

let pd_gate t neighbor dst =
  match Hashtbl.find_opt t.pd_gates (neighbor, dst) with
  | Some g -> g
  | None ->
    let g = new_gate () in
    Hashtbl.replace t.pd_gates (neighbor, dst) g;
    g

let enqueue g dst =
  if not (Route_table.Bitset.mem g.queued dst) then begin
    Route_table.Bitset.add g.queued dst;
    g.members <- dst :: g.members
  end

(* Queue [dsts] behind [g]; returns how many there were. *)
let rec enqueue_all g n = function
  | [] -> n
  | dst :: rest ->
    enqueue g dst;
    enqueue_all g (n + 1) rest

(* Empty [g]'s pending set, returning it ascending. *)
let take_pending g =
  let rec still_queued acc = function
    | [] -> acc
    | dst :: rest ->
      if Route_table.Bitset.mem g.queued dst then begin
        Route_table.Bitset.remove g.queued dst;
        still_queued (dst :: acc) rest
      end
      else still_queued acc rest
  in
  let pending = still_queued [] g.members in
  g.members <- [];
  List.sort Int.compare pending

let send_update_now t neighbor dst =
  t.actions.Proto_intf.send neighbor (Update { dst; path = my_path t dst })

(* Advertise a batch of changed destinations to peer [p], subject to the
   MRAI gate. Following the paper's Section 4.3: a router that has just
   processed an event sends updates for *all* the paths that changed, then
   turns the (per-neighbor) timer on; destinations changing while the timer
   runs accumulate and flush in one batch (with then-current state) when it
   expires, which closes it again. *)
let rec advertise_batch t p dsts =
  match dsts with
  | [] -> ()
  | _ :: _ when not p.up -> ()
  | _ :: _ -> (
    let neighbor = p.peer_id in
    match t.cfg.mrai_scope with
    | Per_neighbor ->
      let g = p.gate in
      if g.closed then
        t.actions.Proto_intf.note
          (Proto_intf.Mrai_deferred { neighbor; dsts = enqueue_all g 0 dsts })
      else begin
        List.iter (send_update_now t neighbor) dsts;
        close_gate t p g
      end
    | Per_destination ->
      let per_dst dst =
        let g = pd_gate t neighbor dst in
        if g.closed then begin
          enqueue g dst;
          t.actions.Proto_intf.note
            (Proto_intf.Mrai_deferred { neighbor; dsts = 1 })
        end
        else begin
          send_update_now t neighbor dst;
          close_gate t p g
        end
      in
      List.iter per_dst dsts)

(* The timer closes over [g] itself: a session reset installs a fresh gate
   for the peer, and a timer already in flight still reopens and flushes the
   old one, through the peer's current gate. *)
and close_gate t p g =
  g.closed <- true;
  ignore
    (t.actions.Proto_intf.after (mrai_delay t) (fun () ->
         g.closed <- false;
         let pending = take_pending g in
         if p.up then
           advertise_batch t p
             (List.filter (fun d -> d = t.id || has_route t d) pending)))

let drop_pending t p dst =
  match t.cfg.mrai_scope with
  | Per_neighbor -> Route_table.Bitset.remove p.gate.queued dst
  | Per_destination -> (
    match Hashtbl.find_opt t.pd_gates (p.peer_id, dst) with
    | Some g -> Route_table.Bitset.remove g.queued dst
    | None -> ())

let rfd_decayed (c : rfd_config) (e : rfd_entry) ~now =
  e.penalty *. (0.5 ** ((now -. e.stamp) /. c.half_life))

let rfd_suppressed t ~neighbor ~dst =
  match t.cfg.rfd with
  | None -> false
  | Some _ -> (
    match Hashtbl.find_opt t.rfd_table (neighbor, dst) with
    | Some e -> e.suppressed
    | None -> false)

(* Recompute the best route to [dst]; shortest path wins, ties broken by the
   lowest neighbor id (standard BGP-style deterministic tie-break: no
   incumbent stickiness, so equal-length alternates can be explored — the
   source of the transient-loop dynamics the paper studies). Suppressed
   (flap-damped) rib entries are not eligible. *)
type transition = Unchanged | Changed | Lost

let recompute t dst =
  if dst = t.id then Unchanged
  else begin
    let winner = ref (-1) and winner_len = ref max_int in
    for s = 0 to Array.length t.peers - 1 do
      let p = t.peers.(s) in
      let len = Route_table.Int_vec.get p.rib_len dst in
      if p.up && len >= 0 && len < !winner_len
         && not (rfd_suppressed t ~neighbor:p.peer_id ~dst)
      then begin
        winner := s;
        winner_len := len
      end
    done;
    if !winner < 0 then
      if has_route t dst then begin
        Route_table.Vec.set t.best_rx dst [];
        Route_table.set t.fib ~dst ~metric:(-1) ~next_hop:(-1);
        t.actions.Proto_intf.route_changed dst;
        Lost
      end
      else Unchanged
    else begin
      let via = t.peers.(!winner).peer_id in
      let path = Route_table.Vec.get t.peers.(!winner).rib_path dst in
      if has_route t dst
         && Route_table.next_hop_id t.fib dst = via
         && same_path (Route_table.Vec.get t.best_rx dst) path
      then Unchanged
      else begin
        Route_table.Vec.set t.best_rx dst path;
        Route_table.set t.fib ~dst ~metric:!winner_len ~next_hop:via;
        t.actions.Proto_intf.route_changed dst;
        Changed
      end
    end
  end

(* Push the consequences of recomputed destinations to all up neighbors:
   lost destinations produce one immediate batched withdrawal; changed ones
   go through the MRAI gate. *)
let propagate t ~lost ~updated =
  match (lost, updated) with
  | [], [] -> ()
  | _ ->
    for s = 0 to Array.length t.peers - 1 do
      let p = t.peers.(s) in
      if p.up then begin
        (match lost with
        | [] -> ()
        | dsts ->
          List.iter (drop_pending t p) dsts;
          t.actions.Proto_intf.send p.peer_id (Withdraw { dsts }));
        advertise_batch t p updated
      end
    done

let rec recompute_all t ~lost ~updated = function
  | [] ->
    propagate t ~lost:(List.sort Int.compare lost)
      ~updated:(List.sort Int.compare updated)
  | dst :: rest -> (
    match recompute t dst with
    | Unchanged -> recompute_all t ~lost ~updated rest
    | Changed -> recompute_all t ~lost ~updated:(dst :: updated) rest
    | Lost -> recompute_all t ~lost:(dst :: lost) ~updated rest)

let recompute_and_propagate t dsts = recompute_all t ~lost:[] ~updated:[] dsts

(* Charge a flap penalty against (neighbor, dst) and suppress the entry when
   the penalty crosses the cutoff; a timer releases it once the exponential
   decay reaches the reuse threshold (capped by [max_suppress]). *)
let rfd_penalize t ~neighbor ~dst amount =
  match t.cfg.rfd with
  | None -> ()
  | Some c ->
    let now = t.actions.Proto_intf.now () in
    let e =
      match Hashtbl.find_opt t.rfd_table (neighbor, dst) with
      | Some e -> e
      | None ->
        let e = { penalty = 0.; stamp = now; suppressed = false } in
        Hashtbl.replace t.rfd_table (neighbor, dst) e;
        e
    in
    e.penalty <- rfd_decayed c e ~now +. amount;
    e.stamp <- now;
    if e.penalty >= c.cutoff && not e.suppressed then begin
      e.suppressed <- true;
      let release_delay =
        Float.min c.max_suppress
          (c.half_life *. (Float.log (e.penalty /. c.reuse) /. Float.log 2.))
      in
      ignore
        (t.actions.Proto_intf.after release_delay (fun () ->
             if e.suppressed then begin
               e.suppressed <- false;
               let now = t.actions.Proto_intf.now () in
               e.penalty <- Float.min (rfd_decayed c e ~now) c.reuse;
               e.stamp <- now;
               recompute_and_propagate t [ dst ]
             end))
    end

let forget p dst =
  Route_table.Int_vec.set p.rib_len dst (-1);
  Route_table.Vec.set p.rib_path dst []

(* An explicit withdrawal of [p]'s entry for [dst], or an implicit one (a
   looped path). *)
let withdraw t p dst =
  if Route_table.Int_vec.get p.rib_len dst >= 0 then begin
    forget p dst;
    match t.cfg.rfd with
    | Some c -> rfd_penalize t ~neighbor:p.peer_id ~dst c.withdrawal_penalty
    | None -> ()
  end

let start t =
  if t.started then invalid_arg "Bgp.start: already started";
  t.started <- true;
  let self = [ t.id ] in
  Array.iter (fun p -> advertise_batch t p self) t.peers

let on_message t ~from msg =
  let s = slot t from in
  if s >= 0 && t.peers.(s).up then begin
    let p = t.peers.(s) in
    match msg with
    | Update { dst; path } ->
      (* Loop detection: a path through ourselves is unusable; the paper
         treats it as an implicit withdrawal. *)
      let len = length_unless_through t.id 0 path in
      if len < 0 then withdraw t p dst
      else begin
        let existed = Route_table.Int_vec.get p.rib_len dst >= 0 in
        let old = Route_table.Vec.get p.rib_path dst in
        Route_table.Vec.set p.rib_path dst path;
        Route_table.Int_vec.set p.rib_len dst len;
        if dst >= p.rib_hi then p.rib_hi <- dst + 1;
        match t.cfg.rfd with
        | Some c when existed && not (same_path old path) ->
          rfd_penalize t ~neighbor:from ~dst c.update_penalty
        | Some _ | None -> ()
      end;
      recompute_and_propagate t [ dst ]
    | Withdraw { dsts } ->
      List.iter (withdraw t p) dsts;
      recompute_and_propagate t dsts
  end

let on_link_down t ~neighbor =
  let s = slot t neighbor in
  if s >= 0 then begin
    let p = t.peers.(s) in
    p.up <- false;
    (* The session is gone: discard Adj-RIB-in and rate-limiter state. *)
    let affected = ref [] in
    for dst = p.rib_hi - 1 downto 0 do
      if Route_table.Int_vec.get p.rib_len dst >= 0 then begin
        forget p dst;
        affected := dst :: !affected
      end
    done;
    p.gate <- new_gate ();
    Hashtbl.filter_map_inplace
      (fun (n, _) g -> if n = neighbor then None else Some g)
      t.pd_gates;
    recompute_and_propagate t !affected
  end

let on_link_up t ~neighbor =
  let s = slot t neighbor in
  if s >= 0 && not t.peers.(s).up then begin
    let p = t.peers.(s) in
    p.up <- true;
    (* Session (re)establishment: the initial table exchange is not subject
       to the MRAI timer. *)
    List.iter (send_update_now t neighbor) (t.id :: Route_table.destinations t.fib);
    let g =
      match t.cfg.mrai_scope with
      | Per_neighbor -> p.gate
      | Per_destination -> pd_gate t neighbor t.id
    in
    if not g.closed then close_gate t p g
  end

let next_hop t ~dst =
  if dst = t.id then None else Route_table.next_hop t.fib dst

let metric t ~dst =
  if dst = t.id then Some 0
  else
    let m = Route_table.metric t.fib dst in
    if m < 0 then None else Some m

let known_destinations t =
  let rec with_self = function
    | dst :: rest when dst < t.id -> dst :: with_self rest
    | dsts -> t.id :: dsts
  in
  with_self (Route_table.destinations t.fib)
