(* A handle is an immediate: the event's pool index in the low 32 bits and
   the cell's generation above (see [c_stamp] below). *)
type handle = int

type 'a tag = int

(* Queued events live in a per-scheduler pool of cells, one column per
   field, recycled through a free list of pool indices: after the event
   loop's 1k-th event, scheduling allocates no cell — the popped cell of
   one event becomes the cell of the next. The queue itself stores only the pool
   index (see [Int_heap]), so the priority queue's arrays are fully unboxed:
   sift moves never execute a write barrier and the GC never scans the
   queue, however deep it gets.

   Three columns are [int] arrays, so writing them is a plain store:
   - [c_tag]: [>= 0] indexes the handler table and [c_obj] is the
     handler's payload; [closure] means [c_obj] is a [unit -> unit]
     closure (the fallback path for rare events); [cancelled] marks an
     event to discard when it is popped.
   - [c_next]: the next free pool index; -1 ends the free list.
   - [c_stamp]: the handle of the event the cell carries now. Releasing a
     cell adds [gen_step], so the handles of the events it carried before
     match no longer: a handle keeps meaning "that one event" after the
     cell moves on to carry another, and a stale [cancel] is a no-op. The
     31-bit generation wraps after 2^31 reuses of one cell.

   Only [c_obj] holds pointers. A free cell's payload is [dummy], so an
   event whose payload is an immediate equal to it ([()] for a handler that
   closes over its own state) is filled and released without touching that
   column, and no cell pins a payload whose event has fired. *)
let closure = -1

let cancelled = -2

let dummy = Obj.repr 0

let index_mask = (1 lsl 32) - 1

let gen_step = 1 lsl 32

(* The clock lives alone in an all-float record so that advancing it is an
   unboxed store: a [mutable clock : float] field of [t] would box every new
   time. *)
type clock = { mutable now : float }

type recorder = {
  on_add : float -> int -> unit;
  on_pop : float -> int -> bool -> unit;
}

(* A timing lane: a FIFO of events that all share one relative delay.

   Nearly every hot event is scheduled as "now + d" for a d that repeats
   millions of times — a link's propagation delay, a packet's transmission
   time, a protocol's route-timeout constant. Because the clock never moves
   backwards, the absolute times of such events arrive already sorted, so
   they need no heap at all: an append-only array popped from the front is
   a correct priority queue for them. [step] merges the lanes with the heap
   by the full [(time, seq)] key, which preserves the global pop order
   exactly (each lane is sorted, the heap is sorted, and every key is
   distinct in [seq] — a k-way merge of sorted streams).

   The payoff is structural: route timeouts alone hold 10^5 entries in the
   distance-vector campaigns, and with them out of the heap, heap sifts
   that walked 9 levels walk 4, while lane pushes and pops are O(1). *)
type lane = {
  l_delay : float;  (* the relative delay this lane serves *)
  mutable l_times : float array;
  mutable l_seqs : int array;
  mutable l_vals : int array;  (* cell-pool indices, like the heap payload *)
  mutable l_head : int;  (* next entry to pop *)
  mutable l_tail : int;  (* next slot to fill *)
}

(* Lanes are created on demand, for delays seen often enough to matter:
   every delay earns a candidate slot, and its [lane_promote_count]-th
   occurrence promotes it to a lane (bounded by [max_lanes]; excess
   recurring delays just stay on the heap, which is merely slower, never
   wrong). Candidate slots evict the lowest count, so one-off jittered
   delays churn the table without ever displacing a recurring constant
   that is accumulating occurrences. *)
let max_lanes = 8

let lane_promote_count = 64

let new_lane d =
  {
    l_delay = d;
    l_times = [||];
    l_seqs = [||];
    l_vals = [||];
    l_head = 0;
    l_tail = 0;
  }

type t = {
  queue : Int_heap.t;
  clock : clock;
  mutable next_seq : int;
  mutable fired : int;
  mutable skipped : int;
  mutable max_depth : int;
  (* The event-cell pool, addressed by queue payload: one column per field
     (see the comment on [closure] above). *)
  mutable c_tag : int array;
  mutable c_next : int array;
  mutable c_stamp : int array;
  mutable c_obj : Obj.t array;
  mutable n_cells : int;
  mutable free_head : int;  (* head of the free-index list; -1 = empty *)
  mutable lanes : lane array;  (* constant-delay FIFO lanes, merged on pop *)
  cand_delay : float array;  (* lane-candidate delays (NaN = empty slot) *)
  cand_count : int array;  (* occurrence counts for the candidates *)
  mutable n_pending : int;  (* queued events across the heap and all lanes *)
  mutable handlers : (Obj.t -> unit) array;
  mutable n_handlers : int;
  mutable recorder : recorder option;
  (* Out-parameters for [Int_heap.pop_into]: reused every pop so the hot
     loop never allocates a [Some (time, seq, idx)] triple. *)
  pop_time : Int_heap.slot;
  pop_seq : int ref;
}

let no_handler (_ : Obj.t) = ()

(* Ambient recorder for schedulers whose creation site a test cannot reach
   (the runner builds its scheduler internally): [create] adopts whatever the
   enclosing [with_default_recorder] installed on this domain. *)
let default_recorder : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_default_recorder r fn =
  let slot = Domain.DLS.get default_recorder in
  let saved = !slot in
  slot := Some r;
  Fun.protect ~finally:(fun () -> slot := saved) fn

let create () =
  {
    queue = Int_heap.create ();
    clock = { now = 0.0 };
    next_seq = 0;
    fired = 0;
    skipped = 0;
    max_depth = 0;
    c_tag = [||];
    c_next = [||];
    c_stamp = [||];
    c_obj = [||];
    n_cells = 0;
    free_head = -1;
    lanes = [||];
    cand_delay = Array.make 16 nan;
    cand_count = Array.make 16 0;
    n_pending = 0;
    handlers = [||];
    n_handlers = 0;
    recorder = !(Domain.DLS.get default_recorder);
    pop_time = Int_heap.slot ();
    pop_seq = ref 0;
  }

let now t = t.clock.now

let set_recorder t r = t.recorder <- r

let register (type a) t (f : a -> unit) : a tag =
  let idx = t.n_handlers in
  if idx = Array.length t.handlers then begin
    let bigger = Array.make (if idx = 0 then 8 else 2 * idx) no_handler in
    Array.blit t.handlers 0 bigger 0 idx;
    t.handlers <- bigger
  end;
  (* Stored as is, without a wrapper closure: every payload queued under
     this tag is an [a]. *)
  t.handlers.(idx) <- (Obj.magic (f : a -> unit) : Obj.t -> unit);
  t.n_handlers <- idx + 1;
  idx

(* Append a cell to the pool, doubling the columns when they are full. Pool
   slots are only ever appended, so an index (and every handle built on it)
   stays valid across reallocations. A new cell starts at generation 0. *)
let fresh_cell t =
  let n = t.n_cells in
  if n = Array.length t.c_tag then begin
    let ncap = if n = 0 then 16 else 2 * n in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.c_tag <- grow t.c_tag 0;
    t.c_next <- grow t.c_next (-1);
    t.c_stamp <- grow t.c_stamp 0;
    t.c_obj <- grow t.c_obj dummy
  end;
  t.c_stamp.(n) <- n;
  t.n_cells <- n + 1;
  n

(* Acquire a pool index: pop the free list, or extend the pool. *)
let acquire t =
  let idx = t.free_head in
  if idx >= 0 then begin
    t.free_head <- Array.unsafe_get t.c_next idx;
    idx
  end
  else fresh_cell t

(* Park a popped cell: drop the payload [obj] it carried (skipped when that
   is the free cell's own [dummy]) and advance its generation, so the
   popped event's handle goes stale. *)
let release t idx obj =
  if obj != dummy then Array.unsafe_set t.c_obj idx dummy;
  Array.unsafe_set t.c_stamp idx (Array.unsafe_get t.c_stamp idx + gen_step);
  Array.unsafe_set t.c_next idx t.free_head;
  t.free_head <- idx

(* Fill a fresh cell; shared by the heap and lane push paths. Returns the
   pool index. *)
let fill_cell t tag obj =
  let idx = acquire t in
  Array.unsafe_set t.c_tag idx tag;
  if obj != dummy then Array.unsafe_set t.c_obj idx obj;
  idx

let note_pushed t at seq =
  (match t.recorder with None -> () | Some r -> r.on_add at seq);
  let depth = t.n_pending + 1 in
  t.n_pending <- depth;
  if depth > t.max_depth then t.max_depth <- depth

let push t ~at tag obj =
  if at < t.clock.now then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule: at=%g is before now=%g" at
         t.clock.now);
  let idx = fill_cell t tag obj in
  let seq = t.next_seq in
  Int_heap.add t.queue ~time:at ~seq idx;
  t.next_seq <- seq + 1;
  note_pushed t at seq;
  idx

let lane_append t l ~at idx =
  let cap = Array.length l.l_seqs in
  if l.l_tail = cap then begin
    let live = l.l_tail - l.l_head in
    if l.l_head > cap / 2 then begin
      (* Plenty of popped prefix: slide the live suffix down in place. *)
      Array.blit l.l_times l.l_head l.l_times 0 live;
      Array.blit l.l_seqs l.l_head l.l_seqs 0 live;
      Array.blit l.l_vals l.l_head l.l_vals 0 live
    end
    else begin
      let ncap = if cap = 0 then 64 else 2 * cap in
      let times = Array.make ncap 0.0 in
      let seqs = Array.make ncap 0 in
      let vals = Array.make ncap 0 in
      Array.blit l.l_times l.l_head times 0 live;
      Array.blit l.l_seqs l.l_head seqs 0 live;
      Array.blit l.l_vals l.l_head vals 0 live;
      l.l_times <- times;
      l.l_seqs <- seqs;
      l.l_vals <- vals
    end;
    l.l_head <- 0;
    l.l_tail <- live
  end;
  let tail = l.l_tail in
  let seq = t.next_seq in
  Array.unsafe_set l.l_times tail at;
  Array.unsafe_set l.l_seqs tail seq;
  Array.unsafe_set l.l_vals tail idx;
  l.l_tail <- tail + 1;
  t.next_seq <- seq + 1;
  note_pushed t at seq

(* Count an occurrence of a recurring delay; true when it just earned a
   lane. Misses evict the smallest count (see the lane comment above). *)
let note_candidate t d =
  let cd = t.cand_delay and cc = t.cand_count in
  let n = Array.length cd in
  let found = ref (-1) in
  let minc = ref max_int and mini = ref 0 in
  let i = ref 0 in
  while !found < 0 && !i < n do
    if cd.(!i) = d then found := !i
    else begin
      if cc.(!i) < !minc then begin
        minc := cc.(!i);
        mini := !i
      end;
      incr i
    end
  done;
  if !found >= 0 then begin
    let s = !found in
    let c = cc.(s) + 1 in
    if c >= lane_promote_count then begin
      cd.(s) <- nan;
      cc.(s) <- 0;
      true
    end
    else begin
      cc.(s) <- c;
      false
    end
  end
  else begin
    cd.(!mini) <- d;
    cc.(!mini) <- 1;
    false
  end

(* Delay-relative push: the fast path of [after]/[fire_after] and the tag
   variants. Routes recurring delays to their lane; everything else to the
   heap. The lane guard ([at] not before the lane's tail) can only trip if
   the clock ever ran backwards — it falls back to the heap, trading speed
   for unconditional correctness of the merge invariant. *)
let push_delayed t ~delay tag obj =
  if delay < 0.0 then invalid_arg "Scheduler.after: negative delay";
  let at = t.clock.now +. delay in
  let lanes = t.lanes in
  let n = Array.length lanes in
  let li = ref (-1) in
  let i = ref 0 in
  while !li < 0 && !i < n do
    if (Array.unsafe_get lanes !i).l_delay = delay then li := !i else incr i
  done;
  if !li >= 0 then begin
    let l = Array.unsafe_get lanes !li in
    if l.l_tail > l.l_head && at < Array.unsafe_get l.l_times (l.l_tail - 1)
    then push t ~at tag obj
    else begin
      let idx = fill_cell t tag obj in
      lane_append t l ~at idx;
      idx
    end
  end
  else begin
    if n < max_lanes && note_candidate t delay then
      t.lanes <- Array.append t.lanes [| new_lane delay |];
    push t ~at tag obj
  end

let handle_of t idx = Array.unsafe_get t.c_stamp idx

let schedule t ~at fn = handle_of t (push t ~at closure (Obj.repr fn))

let after t ~delay fn = handle_of t (push_delayed t ~delay closure (Obj.repr fn))

let fire_at t ~at fn = ignore (push t ~at closure (Obj.repr fn) : int)

let fire_after t ~delay fn =
  ignore (push_delayed t ~delay closure (Obj.repr fn) : int)

let schedule_tag_h t ~at tag x = handle_of t (push t ~at tag (Obj.repr x))

let after_tag_h t ~delay tag x =
  handle_of t (push_delayed t ~delay tag (Obj.repr x))

(* A handle whose stamp no longer matches its cell names an event that has
   been popped: fired, or cancelled and discarded. *)
let cancel t h =
  let idx = h land index_mask in
  if idx < t.n_cells && Array.unsafe_get t.c_stamp idx = h then
    Array.unsafe_set t.c_tag idx cancelled

let pending t = t.n_pending

(* Which queue holds the globally minimum [(time, seq)] key: 0 for the
   heap, [i + 1] for lane [i], -1 when everything is empty. Writes the
   winning time into [t.pop_time] as a side effect (used by [run ~until]).
   The scan is over at most [max_lanes + 1] heads — the whole point of the
   lanes is that this fixed-size merge replaces deep heap sifts. *)
let select t =
  let src = ref (-1) in
  let bt = ref infinity and bs = ref max_int in
  if Int_heap.peek_key t.queue t.pop_time ~seq:t.pop_seq then begin
    src := 0;
    bt := t.pop_time.Int_heap.slot_time;
    bs := !(t.pop_seq)
  end;
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = Array.unsafe_get lanes i in
    let h = l.l_head in
    if h < l.l_tail then begin
      let ht = Array.unsafe_get l.l_times h in
      if
        !src < 0 || ht < !bt
        || (ht = !bt && Array.unsafe_get l.l_seqs h < !bs)
      then begin
        src := i + 1;
        bt := ht;
        bs := Array.unsafe_get l.l_seqs h;
        t.pop_time.Int_heap.slot_time <- ht
      end
    end
  done;
  !src

(* Pop the head of queue [s] (a [select] result) and dispatch it. *)
let exec t s =
  let idx =
    if s = 0 then begin
      let idx = Int_heap.pop_into t.queue t.pop_time ~seq:t.pop_seq in
      t.clock.now <- t.pop_time.Int_heap.slot_time;
      idx
    end
    else begin
      let l = Array.unsafe_get t.lanes (s - 1) in
      let h = l.l_head in
      t.clock.now <- Array.unsafe_get l.l_times h;
      t.pop_seq := Array.unsafe_get l.l_seqs h;
      let idx = Array.unsafe_get l.l_vals h in
      let h' = h + 1 in
      if h' = l.l_tail then begin
        l.l_head <- 0;
        l.l_tail <- 0
      end
      else l.l_head <- h';
      idx
    end
  in
  t.n_pending <- t.n_pending - 1;
  (* Read the event out and recycle the cell *before* dispatch, so the
     callback (which usually schedules) reuses this very cell. *)
  let tag = Array.unsafe_get t.c_tag idx and obj = Array.unsafe_get t.c_obj idx in
  release t idx obj;
  (match t.recorder with
  | None -> ()
  | Some r -> r.on_pop t.clock.now !(t.pop_seq) (tag <> cancelled));
  if tag >= 0 then begin
    t.fired <- t.fired + 1;
    (Array.unsafe_get t.handlers tag) obj
  end
  else if tag = closure then begin
    t.fired <- t.fired + 1;
    (Obj.obj obj : unit -> unit) ()
  end
  else t.skipped <- t.skipped + 1

let step t =
  let s = select t in
  if s < 0 then false
  else begin
    exec t s;
    true
  end

exception Wall_timeout

exception Stop_requested

(* One process-wide flag, not per-scheduler: the code that wants the fleet
   to stop (a signal handler in the CLI) cannot reach the scheduler objects
   living inside worker-domain task closures, exactly like the wall budget
   below. An atomic makes the store in the signal handler visible to every
   domain's poll. *)
let stop_flag = Atomic.make false

let request_stop () = Atomic.set stop_flag true

let stop_requested () = Atomic.get stop_flag

let clear_stop () = Atomic.set stop_flag false

(* The wall-clock budget is domain-local rather than a field of [t]: the code
   that owns the budget (a campaign watchdog) and the code that creates the
   scheduler (a runner deep inside an opaque task closure) never meet.
   Checking the deadline every event would cost a syscall per event, so [run]
   only consults the clock every [wall_interval] events — coarse, but a hung
   cell is hung for seconds, not microseconds. *)
let wall_interval = 1024

let wall_deadline : float option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_wall_budget budget fn =
  if budget <= 0.0 then invalid_arg "Scheduler.with_wall_budget: budget <= 0";
  let slot = Domain.DLS.get wall_deadline in
  let saved = !slot in
  slot := Some (Unix.gettimeofday () +. budget);
  Fun.protect ~finally:(fun () -> slot := saved) fn

let run ?until t =
  let slot = Domain.DLS.get wall_deadline in
  let ticks = ref 0 in
  let check_wall () =
    incr ticks;
    if !ticks land (wall_interval - 1) = 0 then begin
      if Atomic.get stop_flag then raise Stop_requested;
      match !slot with
      | Some deadline when Unix.gettimeofday () > deadline -> raise Wall_timeout
      | Some _ | None -> ()
    end
  in
  match until with
  | None ->
    let rec loop () =
      let s = select t in
      if s >= 0 then begin
        check_wall ();
        exec t s;
        loop ()
      end
    in
    loop ()
  | Some horizon ->
    (* [select] leaves the winning time in [t.pop_time] — no [Some (time,
       seq, x)] triple is boxed to decide whether the event is in range. *)
    let rec loop () =
      let s = select t in
      if s >= 0 && t.pop_time.Int_heap.slot_time <= horizon then begin
        check_wall ();
        exec t s;
        loop ()
      end
      else if t.clock.now < horizon then t.clock.now <- horizon
    in
    loop ()

let events_processed t = t.fired

let events_scheduled t = t.next_seq

let events_skipped t = t.skipped

let max_queue_depth t = t.max_depth
