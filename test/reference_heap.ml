(* The pre-rewrite event heap, kept verbatim as a differential oracle.

   This is the boxed entry-record implementation the engine shipped with
   before the structure-of-arrays rewrite (including its swap-based sifts).
   The property tests drive identical (time, seq) streams through this heap
   and [Dessim.Int_heap] and require identical pop sequences — the SoA layout
   is an optimization, never a behavior change.

   (The original [ensure_capacity] seeded grown arrays with [t.arr.(0)] and
   [pop] parked the popped entry back into the array — both pin payloads for
   the GC. That retention bug is preserved here on purpose: this module is an
   ordering oracle, not a memory-behavior one; [Dessim.Int_heap] holds only
   immediate payloads, so it has nothing to retain.) *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a entry array; mutable size : int }

let create () = { arr = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let ensure_capacity t entry =
  let cap = Array.length t.arr in
  if cap = 0 then t.arr <- Array.make 16 entry
  else if t.size = cap then begin
    let bigger = Array.make (2 * cap) t.arr.(0) in
    Array.blit t.arr 0 bigger 0 cap;
    t.arr <- bigger
  end

let rec sift_up arr i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less arr.(i) arr.(parent) then begin
      let tmp = arr.(i) in
      arr.(i) <- arr.(parent);
      arr.(parent) <- tmp;
      sift_up arr parent
    end
  end

let rec sift_down arr size i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < size && less arr.(left) arr.(i) then left else i in
  let smallest =
    if right < size && less arr.(right) arr.(smallest) then right else smallest
  in
  if smallest <> i then begin
    let tmp = arr.(i) in
    arr.(i) <- arr.(smallest);
    arr.(smallest) <- tmp;
    sift_down arr size smallest
  end

let add t ~time ~seq payload =
  let entry = { time; seq; payload } in
  ensure_capacity t entry;
  t.arr.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t.arr (t.size - 1)

let min_elt t =
  if t.size = 0 then None
  else
    let e = t.arr.(0) in
    Some (e.time, e.seq, e.payload)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.arr.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.arr.(0) <- t.arr.(t.size);
      sift_down t.arr t.size 0
    end;
    t.arr.(t.size) <- top;
    Some (top.time, top.seq, top.payload)
  end

let clear t =
  t.arr <- [||];
  t.size <- 0

let to_sorted_list t =
  let rec drain acc =
    match pop t with None -> List.rev acc | Some e -> drain (e :: acc)
  in
  drain []
