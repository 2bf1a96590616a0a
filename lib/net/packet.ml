type t = {
  id : int;
  src : Types.node_id;
  dst : Types.node_id;
  size_bits : int;
  sent_at : float;
  mutable ttl : int;
  mutable visit_count : int;
  mutable visits : Types.node_id list;
  mutable revisited : bool;
  (* Inline bitset over node ids 0..125 (two 63-bit words): the loop check
     below is one bit test instead of a walk of the journey. Ids >= 126 fall
     back to a scan of [visits], which holds only those ids, so the check
     stays exact for any topology and a hop on a smaller one allocates
     nothing. *)
  mutable vmask0 : int;
  mutable vmask1 : int;
}

let create ~id ~src ~dst ~size_bits ~ttl ~sent_at =
  {
    id;
    src;
    dst;
    size_bits;
    sent_at;
    ttl;
    visit_count = 0;
    visits = [];
    revisited = false;
    vmask0 = 0;
    vmask1 = 0;
  }

(* The loop check rides along with the visit — one bit test per hop instead
   of a quadratic rescan of the whole journey at delivery time. *)
let visit p n =
  p.visit_count <- p.visit_count + 1;
  if n < 63 then begin
    let b = 1 lsl n in
    if p.vmask0 land b <> 0 then p.revisited <- true
    else p.vmask0 <- p.vmask0 lor b
  end
  else if n < 126 then begin
    let b = 1 lsl (n - 63) in
    if p.vmask1 land b <> 0 then p.revisited <- true
    else p.vmask1 <- p.vmask1 lor b
  end
  else begin
    if (not p.revisited) && List.mem n p.visits then p.revisited <- true;
    p.visits <- n :: p.visits
  end

(* Non-mutating membership test over the same bitset/list hybrid as [visit];
   fast reroute uses it to refuse a backup hop that would close a loop. *)
let visited p n =
  if n < 63 then p.vmask0 land (1 lsl n) <> 0
  else if n < 126 then p.vmask1 land (1 lsl (n - 63)) <> 0
  else List.mem n p.visits

let hop_count p = max 0 (p.visit_count - 1)

let looped p = p.revisited
