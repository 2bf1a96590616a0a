module Edge_set = Set.Make (struct
  type t = int * int

  let compare ((a, b) : t) ((c, d) : t) =
    if a <> c then Int.compare a c else Int.compare b d
end)

type t = { n : int; adj : Types.node_id list array; edge_set : Edge_set.t }

let canonical u v = if u < v then (u, v) else (v, u)

let create ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Topology.create: nodes must be positive";
  let check u =
    if u < 0 || u >= nodes then
      invalid_arg (Printf.sprintf "Topology.create: node %d out of range" u)
  in
  let edge_set =
    List.fold_left
      (fun acc (u, v) ->
        check u;
        check v;
        if u = v then invalid_arg "Topology.create: self-loop";
        Edge_set.add (canonical u v) acc)
      Edge_set.empty edges
  in
  let adj = Array.make nodes [] in
  Edge_set.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edge_set;
  Array.iteri (fun i l -> adj.(i) <- List.sort Int.compare l) adj;
  { n = nodes; adj; edge_set }

let node_count t = t.n

let edge_count t = Edge_set.cardinal t.edge_set

let edges t = Edge_set.elements t.edge_set

let neighbors t u = t.adj.(u)

let degree t u = List.length t.adj.(u)

(* Neighbor lists are sorted ascending, so the scan stops at the first id
   past [v]: linear in the degree, no allocation. *)
let rec mem_sorted (v : int) = function
  | [] -> false
  | w :: rest -> w = v || (w < v && mem_sorted v rest)

let has_edge t u v = u >= 0 && u < t.n && mem_sorted v t.adj.(u)

let remove_edge t u v =
  if has_edge t u v then
    create ~nodes:t.n ~edges:(Edge_set.elements (Edge_set.remove (canonical u v) t.edge_set))
  else t

let add_edge t u v =
  if has_edge t u v then t
  else create ~nodes:t.n ~edges:((u, v) :: Edge_set.elements t.edge_set)

let bfs_distances t src =
  let dist = Array.make t.n max_int in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    let relax v =
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v q
      end
    in
    List.iter relax t.adj.(u)
  done;
  dist

let is_connected t =
  let dist = bfs_distances t 0 in
  Array.for_all (fun d -> d <> max_int) dist

let shortest_path t src dst =
  let dist = Array.make t.n max_int in
  let parent = Array.make t.n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    (* Neighbors are sorted, so the first parent found has the smallest id. *)
    let relax v =
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        parent.(v) <- u;
        Queue.add v q
      end
    in
    List.iter relax t.adj.(u)
  done;
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
