(* Compressed sparse rows: node [u]'s neighbors are [nbr.(off.(u))] to
   [nbr.(off.(u + 1) - 1)], ascending, and each position is the slot of one
   directed link. *)
type t = { n : int; off : int array; nbr : Types.node_id array }

let create ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Topology.create: nodes must be positive";
  let check u =
    if u < 0 || u >= nodes then
      invalid_arg (Printf.sprintf "Topology.create: node %d out of range" u)
  in
  let rows = Array.make nodes [] in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      if u = v then invalid_arg "Topology.create: self-loop";
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    edges;
  let rows = Array.map (List.sort_uniq Int.compare) rows in
  let off = Array.make (nodes + 1) 0 in
  Array.iteri (fun u row -> off.(u + 1) <- off.(u) + List.length row) rows;
  let nbr = Array.make off.(nodes) 0 in
  Array.iteri (fun u row -> List.iteri (fun i v -> nbr.(off.(u) + i) <- v) row) rows;
  { n = nodes; off; nbr }

let node_count t = t.n

let slot_count t = Array.length t.nbr

let edge_count t = slot_count t / 2

let first_slot t u = t.off.(u)

let end_slot t u = t.off.(u + 1)

let slot_target t s = t.nbr.(s)

let degree t u = end_slot t u - first_slot t u

let neighbors t u = List.init (degree t u) (fun i -> t.nbr.(t.off.(u) + i))

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for s = t.off.(u + 1) - 1 downto t.off.(u) do
      if u < t.nbr.(s) then acc := (u, t.nbr.(s)) :: !acc
    done
  done;
  !acc

let slot t u v =
  if u < 0 || u >= t.n then -1
  else begin
    let lo = ref t.off.(u) and hi = ref (t.off.(u + 1) - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let w = t.nbr.(mid) in
      if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

let has_edge t u v = slot t u v >= 0

let init_slots t f =
  let u = ref 0 in
  Array.init (slot_count t) (fun s ->
      while t.off.(!u + 1) <= s do
        incr u
      done;
      f !u t.nbr.(s))

let remove_edge t u v =
  if not (has_edge t u v) then t
  else begin
    let off = Array.make (t.n + 1) 0 in
    let nbr = Array.make (slot_count t - 2) 0 in
    let k = ref 0 in
    for a = 0 to t.n - 1 do
      for s = t.off.(a) to t.off.(a + 1) - 1 do
        let b = t.nbr.(s) in
        if not ((a = u && b = v) || (a = v && b = u)) then begin
          nbr.(!k) <- b;
          incr k
        end
      done;
      off.(a + 1) <- !k
    done;
    { n = t.n; off; nbr }
  end

let add_edge t u v =
  if has_edge t u v then t else create ~nodes:t.n ~edges:((u, v) :: edges t)

(* Breadth-first search from [src] over an array queue (each node enters it
   once). When [parent] is non-empty it receives each reached node's
   predecessor: the first one dequeued, a deterministic choice since rows
   are ascending. *)
let bfs t src parent =
  let dist = Array.make t.n max_int in
  let queue = Array.make t.n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for s = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.nbr.(s) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        if Array.length parent > 0 then parent.(v) <- u;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let bfs_distances t src = bfs t src [||]

let is_connected t =
  let dist = bfs_distances t 0 in
  Array.for_all (fun d -> d <> max_int) dist

let shortest_path t src dst =
  let parent = Array.make t.n (-1) in
  let dist = bfs t src parent in
  if dist.(dst) = max_int then None
  else begin
    let rec walk acc v = if v = src then src :: acc else walk (v :: acc) parent.(v) in
    Some (walk [] dst)
  end

let diameter t =
  let worst = ref 0 in
  let disconnected = ref false in
  for src = 0 to t.n - 1 do
    let dist = bfs_distances t src in
    Array.iter
      (fun d -> if d = max_int then disconnected := true else if d > !worst then worst := d)
      dist
  done;
  if !disconnected then max_int else !worst

let average_path_length t =
  let total = ref 0 and pairs = ref 0 in
  for src = 0 to t.n - 1 do
    let dist = bfs_distances t src in
    Array.iteri
      (fun v d ->
        if v <> src && d <> max_int then begin
          total := !total + d;
          incr pairs
        end)
      dist
  done;
  if !pairs = 0 then 0. else float_of_int !total /. float_of_int !pairs

let components t =
  let seen = Array.make t.n false in
  let comps = ref [] in
  for src = 0 to t.n - 1 do
    if not seen.(src) then begin
      let dist = bfs_distances t src in
      let members = ref [] in
      Array.iteri
        (fun v d ->
          if d <> max_int then begin
            seen.(v) <- true;
            members := v :: !members
          end)
        dist;
      comps := List.sort compare !members :: !comps
    end
  done;
  List.rev !comps
