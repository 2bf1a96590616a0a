(* Precomputed loop-free alternates (LFA) for IP fast reroute.

   The routing protocols of this simulator converge in seconds; the paper's
   loss window is exactly the span between a failure and that convergence.
   Fast reroute shrinks the window from the data plane: every router
   precomputes, per destination, one backup next hop it may switch to the
   instant it locally detects an incident link down — before any control
   message has moved.

   The backup is a classic per-link LFA. With every link of cost 1 (this
   simulator's metric), neighbor [alt] of [self] is loop-free for
   destination [dst] iff

     dist(alt, dst) < dist(alt, self) + dist(self, dst)
                    = 1 + dist(self, dst)

   i.e. [alt]'s own converged metric to [dst] must beat the path back
   through [self]. Among qualifying alternates the {e downstream} ones
   ([dist(alt, dst) < dist(self, dst)]) are preferred — a downstream backup
   is loop-free even under multiple simultaneous failures — then the lowest
   metric, then the lowest node id, so the table is deterministic.

   The LFA guarantee is relative to the converged state it was computed
   from. While routers re-converge, two activated LFAs can still chase each
   other; the forwarding layer therefore refuses a backup hop toward a node
   the packet has already visited, which bounds any residual loop to one
   revisit-free walk.

   This module is pure bookkeeping over dense int arrays — no scheduler —
   so the engine can consult it on the forwarding hot path: [backup_id] is
   one array read, and [is_down] one slot lookup, a binary search over the
   node's topology row. All state the runner needs is here:

   - the backup table, [node * n + dst] -> backup next hop or -1;
   - the dirty-destination set driving debounced recomputation (route
     changes mark destinations; one sweep recomputes only those);
   - per-directed-link local failure detection ([mark_down]/[mark_up]),
     one bit per topology slot, and the per-node count that makes [active]
     a single load. *)

module Topo = Netsim.Topology

type t = {
  n : int;
  topo : Topo.t;
  backup : int array;  (* node * n + dst -> backup next hop, or -1 *)
  dirty : Bytes.t;  (* per-destination: backup column needs recomputing *)
  mutable dirty_any : bool;
  mutable sweep_armed : bool;  (* the owner has a sweep scheduled *)
  down : Bytes.t;  (* per topology slot: this end detected the link down *)
  down_count : int array;  (* per node: detected-down incident links *)
}

let create topo =
  let n = Topo.node_count topo in
  {
    n;
    topo;
    backup = Array.make (n * n) (-1);
    dirty = Bytes.make ((n + 7) / 8) '\000';
    dirty_any = false;
    sweep_armed = false;
    down = Bytes.make ((Topo.slot_count topo + 7) / 8) '\000';
    down_count = Array.make n 0;
  }

let node_count t = t.n

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i v =
  let byte = i lsr 3 in
  let cur = Char.code (Bytes.get b byte) in
  let bit = 1 lsl (i land 7) in
  Bytes.set b byte (Char.chr (if v then cur lor bit else cur land lnot bit))

(* ---------- local failure detection ---------- *)

let mark_down t ~node ~neighbor =
  let s = Topo.slot t.topo node neighbor in
  if s < 0 || bit_get t.down s then false
  else begin
    bit_set t.down s true;
    t.down_count.(node) <- t.down_count.(node) + 1;
    true
  end

let mark_up t ~node ~neighbor =
  let s = Topo.slot t.topo node neighbor in
  if s >= 0 && bit_get t.down s then begin
    bit_set t.down s false;
    t.down_count.(node) <- t.down_count.(node) - 1
  end

let active t node = t.down_count.(node) > 0

let is_down t ~node ~neighbor =
  let s = Topo.slot t.topo node neighbor in
  s >= 0 && bit_get t.down s

(* ---------- backup table ---------- *)

let backup_id t ~node ~dst = t.backup.((node * t.n) + dst)

let backup t ~node ~dst =
  let b = backup_id t ~node ~dst in
  if b < 0 then None else Some b

let mark_dirty t ~dst =
  if dst >= 0 && dst < t.n && not (bit_get t.dirty dst) then begin
    bit_set t.dirty dst true;
    t.dirty_any <- true
  end

let arm_sweep t =
  if t.sweep_armed then false
  else begin
    t.sweep_armed <- true;
    true
  end

(* Topology events must dirty destinations on their own: a link can fail or
   heal without any route toward some destination changing, so the
   route-change hook alone would leave the table stale — an installed
   alternate across the dead link, or an empty cell a healed neighbor now
   qualifies for. Detection invalidates exactly the cells at [node] whose
   backup crosses the downed link; a heal can only fill cells, so it dirties
   the endpoint's currently-empty ones. *)
let dirty_backups_via t ~node ~neighbor =
  let base = node * t.n in
  for dst = 0 to t.n - 1 do
    if t.backup.(base + dst) = neighbor then mark_dirty t ~dst
  done

let dirty_missing_backups t ~node =
  let base = node * t.n in
  for dst = 0 to t.n - 1 do
    if dst <> node && t.backup.(base + dst) < 0 then mark_dirty t ~dst
  done

(* Best LFA for (node, dst), or -1. [metric]/[next_hop] expose the owning
   protocol's current table; a backup exists only alongside a live primary
   route (no primary: nothing to protect, and no finite [dist(self, dst)]
   for the LFA inequality). Neighbors behind a locally-detected-down link
   are excluded — a backup that is already known unreachable protects
   nothing. *)
let compute_backup t ~metric ~next_hop ~node ~dst =
  match (next_hop ~node ~dst : int option) with
  | None -> -1
  | Some prim -> (
    match (metric ~node ~dst : int option) with
    | None -> -1
    | Some self_m ->
      let best = ref (-1) and best_m = ref max_int and best_down = ref false in
      for s = Topo.first_slot t.topo node to Topo.end_slot t.topo node - 1 do
        let alt = Topo.slot_target t.topo s in
        if alt <> prim && not (bit_get t.down s) then begin
          match (metric ~node:alt ~dst : int option) with
          | Some am when am < 1 + self_m ->
            let downstream = am < self_m in
            if
              (downstream && not !best_down)
              || (downstream = !best_down && am < !best_m)
            then begin
              best := alt;
              best_m := am;
              best_down := downstream
            end
          | Some _ | None -> ()
        end
      done;
      !best)

(* A node whose primary is currently withdrawn keeps its previous backup:
   the table must reflect the last {e converged} view, and a sweep that
   happens to fire mid-churn (routes transiently gone) would otherwise
   erase the alternates precisely during the loss window they exist to
   cover. Once a fresh primary lands, the next sweep re-settles the cell —
   possibly to -1 if the new converged state truly has no LFA. *)
let recompute_dst t ~metric ~next_hop ~on_install dst =
  for node = 0 to t.n - 1 do
    if node <> dst && (next_hop ~node ~dst : int option) <> None then begin
      let cell = (node * t.n) + dst in
      let b = compute_backup t ~metric ~next_hop ~node ~dst in
      if b <> t.backup.(cell) then begin
        t.backup.(cell) <- b;
        if b >= 0 then on_install ~node ~dst ~backup:b
      end
    end
  done

let sweep t ~metric ~next_hop ~on_install =
  t.sweep_armed <- false;
  if t.dirty_any then begin
    t.dirty_any <- false;
    for dst = 0 to t.n - 1 do
      if bit_get t.dirty dst then begin
        bit_set t.dirty dst false;
        recompute_dst t ~metric ~next_hop ~on_install dst
      end
    done
  end
