(* Dense routing state keyed by node index.

   Distance-vector protocols address destinations by small integer node ids,
   so their per-router state — the routing table, the adj-RIB-in heard
   vectors, the per-route timeout handles — fits flat growable arrays
   indexed by id. A lookup on the forwarding hot path is then a bounds check
   and an array read instead of a hash, and updating a route writes in place
   instead of churning hash buckets.

   Arrays grow by doubling when a larger id appears; protocols never learn
   the network size up front, so the vectors discover it. *)

(* [a] grown by doubling (to at least 16 and at least [i + 1] slots), the new
   slots filled with [default]. Every array below grows through it. *)
let grown a i default =
  let cap = Array.length a in
  let bigger = Array.make (max 16 (max (i + 1) (2 * cap))) default in
  Array.blit a 0 bigger 0 cap;
  bigger

module Int_vec = struct
  type t = { mutable a : int array; default : int }

  let create ~default = { a = [||]; default }

  let get v i = if i < Array.length v.a then v.a.(i) else v.default

  let set v i x =
    if i >= Array.length v.a then v.a <- grown v.a i v.default;
    v.a.(i) <- x
end

(* Growable vector with a sentinel default: BGP's selected and heard AS
   paths (absent = []), DBF's per-neighbor caches (absent = None), a
   deadline vector's memoised fire closures (absent = [nop]). *)
module Vec = struct
  type 'a t = { mutable a : 'a array; default : 'a }

  let create ~default = { a = [||]; default }

  let get v i = if i < Array.length v.a then v.a.(i) else v.default

  let set v i x =
    if i >= Array.length v.a then v.a <- grown v.a i v.default;
    v.a.(i) <- x
end

(* Growable set of small non-negative ints, one bit each: a timer slot's
   "armed" flag, a BGP MRAI gate's pending destinations. *)
module Bitset = struct
  type t = { mutable b : Bytes.t }

  let create () = { b = Bytes.empty }

  let mem v i =
    let byte = i lsr 3 in
    byte < Bytes.length v.b
    && Char.code (Bytes.unsafe_get v.b byte) land (1 lsl (i land 7)) <> 0

  let grow v byte =
    let cap = Bytes.length v.b in
    let cap' = max 16 (max (byte + 1) (2 * cap)) in
    let bigger = Bytes.make cap' '\000' in
    Bytes.blit v.b 0 bigger 0 cap;
    v.b <- bigger

  let add v i =
    let byte = i lsr 3 in
    if byte >= Bytes.length v.b then grow v byte;
    Bytes.unsafe_set v.b byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get v.b byte) lor (1 lsl (i land 7))))

  let remove v i =
    let byte = i lsr 3 in
    if byte < Bytes.length v.b then
      Bytes.unsafe_set v.b byte
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get v.b byte) land lnot (1 lsl (i land 7))))
end

(* Per-slot re-armable timeouts. Scheduler cancellation is lazy (a cancelled
   event stays queued until its fire time), so the old cancel-and-reschedule
   idiom for the 180 s route timeouts left one tombstone per refresh in the
   queue — a population of (refreshes per sim-second x 180 s) dead events
   that became the binding memory constraint at 4096 nodes (DESIGN.md 15).
   A slot stores the absolute expiry deadline plus one "armed" bit:
   [refresh] writes the deadline in place and schedules an event only when
   none is outstanding, and that single event re-arms itself on fire for
   whatever delay remains. [cancel] writes the [inactive] sentinel, which the
   outstanding event (if any) falls silent on. At most one queued event per
   slot exists at any time, and expiry instants are preserved exactly: a
   refresh never moves the deadline below the outstanding event's fire time
   (the timeout is constant), so the chain always lands on the latest
   deadline. *)
module Deadline_vec = struct
  let inactive = neg_infinity

  let nop () = ()

  type t = {
    mutable d : float array;  (* absolute expiry time, or [inactive] *)
    armed : Bitset.t;  (* a scheduler event is outstanding *)
    fires : (unit -> unit) Vec.t;  (* memoised per-slot fire closures *)
    timeout : float;
    now : unit -> float;
    after : float -> (unit -> unit) -> Dessim.Scheduler.handle;
    expire : int -> unit;
  }

  let create ~timeout ~now ~after ~expire =
    {
      d = [||];
      armed = Bitset.create ();
      fires = Vec.create ~default:nop;
      timeout;
      now;
      after;
      expire;
    }

  (* The slot's one outstanding event. On fire: a cancelled slot falls
     silent; a deadline pushed into the future (the common case — the slot
     was refreshed since this event was armed) re-arms for the remaining
     delay; otherwise the timeout really expired. The [now + delay > now]
     guard keeps a sub-ulp residue from chaining a zero-advance event at the
     same instant forever. *)
  let rec fire v i () =
    Bitset.remove v.armed i;
    let d = v.d.(i) in
    if d <> inactive then begin
      let now = v.now () in
      let delay = d -. now in
      if delay > 0. && now +. delay > now then arm v i delay
      else begin
        v.d.(i) <- inactive;
        v.expire i
      end
    end

  (* The fire closure is built once per slot and reused for its whole life:
     refreshes happen for every entry of every heard vector, so a fresh
     closure per re-arm would dominate the control plane's allocation. *)
  and arm v i delay =
    Bitset.add v.armed i;
    let f = Vec.get v.fires i in
    let f =
      if f != nop then f
      else begin
        let f = fire v i in
        Vec.set v.fires i f;
        f
      end
    in
    ignore (v.after delay f)

  let refresh v ~now i =
    if i >= Array.length v.d then v.d <- grown v.d i inactive;
    v.d.(i) <- now +. v.timeout;
    if not (Bitset.mem v.armed i) then arm v i v.timeout

  let cancel v i = if i < Array.length v.d then v.d.(i) <- inactive
end

type t = {
  metric : Int_vec.t;  (* [absent] when no route was ever installed *)
  next_hop : Int_vec.t;  (* -1: no next hop (the self route) *)
  mutable next_hop_opt : int option array;
      (* boxed mirror of [next_hop], kept on write so the per-hop
         forwarding query returns a preallocated option *)
  mutable hi : int;  (* 1 + highest destination ever installed *)
}

let absent = -1

let create () =
  {
    metric = Int_vec.create ~default:absent;
    next_hop = Int_vec.create ~default:(-1);
    next_hop_opt = [||];
    hi = 0;
  }

let mem t dst = Int_vec.get t.metric dst <> absent

let metric t dst = Int_vec.get t.metric dst

let next_hop_id t dst = Int_vec.get t.next_hop dst

let next_hop t dst =
  if dst < Array.length t.next_hop_opt then t.next_hop_opt.(dst) else None

let set_next_hop t ~dst ~next_hop =
  Int_vec.set t.next_hop dst next_hop;
  if dst >= Array.length t.next_hop_opt then
    t.next_hop_opt <- grown t.next_hop_opt dst None;
  t.next_hop_opt.(dst) <- (if next_hop < 0 then None else Some next_hop)

let set_metric t ~dst ~metric =
  Int_vec.set t.metric dst metric;
  if dst >= t.hi then t.hi <- dst + 1

let set t ~dst ~metric ~next_hop =
  set_metric t ~dst ~metric;
  set_next_hop t ~dst ~next_hop

let iter t f =
  for dst = 0 to t.hi - 1 do
    if Int_vec.get t.metric dst <> absent then f dst
  done

(* Ascending, i.e. exactly the old [Hashtbl.fold ... |> List.sort compare]. *)
let destinations t =
  let acc = ref [] in
  for dst = t.hi - 1 downto 0 do
    if Int_vec.get t.metric dst <> absent then acc := dst :: !acc
  done;
  !acc
