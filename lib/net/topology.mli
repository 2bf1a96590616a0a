(** Immutable undirected graphs with unit-cost edges.

    All protocols in the paper run over unit-cost links, so shortest paths are
    BFS paths.

    Graphs are built by {!Mesh} (the paper's regular family), {!Random_topo}
    (ER/Waxman/BA/hierarchical) and {!Classic} (test fixtures). The one
    representation is compressed sparse rows: node [u]'s neighbors sit in
    one contiguous, ascending row of a shared array, so the graph is
    O(nodes + edges) words and generation scales to the campaign's 10k-node
    graphs. Each position in a row is a directed-link {e slot}, the index
    every per-link table of the simulator is keyed by. {!degree} is O(1);
    {!has_edge} and {!slot} are binary searches, O(log degree), and allocate
    nothing; {!neighbors} builds a fresh list; BFS is O(nodes + edges). The
    all-pairs helpers ({!diameter}, {!average_path_length}) remain
    O(nodes × edges) and are meant for reporting, not hot paths. *)

type t

val create : nodes:int -> edges:(Types.node_id * Types.node_id) list -> t
(** [create ~nodes ~edges] builds a graph on nodes [0 .. nodes-1]. Edges are
    deduplicated in either orientation. The first bad edge in list order
    raises [Invalid_argument]: an out-of-range endpoint, then a self-loop. *)

val node_count : t -> int

val edge_count : t -> int

val edges : t -> (Types.node_id * Types.node_id) list
(** Canonical edge list, each as [(u, v)] with [u < v], sorted. *)

val neighbors : t -> Types.node_id -> Types.node_id list
(** [u]'s row as a fresh list, sorted ascending — callers (the oracle's
    checks, the protocols' neighbor tables) rely on the order being
    deterministic. *)

val degree : t -> Types.node_id -> int

val has_edge : t -> Types.node_id -> Types.node_id -> bool
(** [has_edge t u v] is [slot t u v >= 0]. Ids outside
    [0 .. node_count t - 1] give [false]. *)

(** {2 Directed-link slots}

    Each edge [u-v] is two directed links, [u -> v] and [v -> u]. The links
    out of [u] occupy slots [first_slot t u] to [end_slot t u - 1], ordered
    by target, and rows follow node order from slot 0. A per-link table is
    therefore a plain array of {!slot_count} entries. *)

val slot_count : t -> int
(** [2 * edge_count t]. *)

val first_slot : t -> Types.node_id -> int

val end_slot : t -> Types.node_id -> int
(** One past [u]'s last slot: [end_slot t u - first_slot t u = degree t u]. *)

val slot_target : t -> int -> Types.node_id
(** The node the link in this slot leads to. *)

val slot : t -> Types.node_id -> Types.node_id -> int
(** [slot t u v] is the slot of directed link [u -> v], or [-1] when [u] and
    [v] are not adjacent or either id is outside [0 .. node_count t - 1]. A
    binary search over [u]'s row. *)

val init_slots : t -> (Types.node_id -> Types.node_id -> 'a) -> 'a array
(** [init_slots t f] is the per-link table whose slot [slot t u v] holds
    [f u v], built by calling [f] in slot order. *)

val remove_edge : t -> Types.node_id -> Types.node_id -> t
(** [remove_edge t u v] is [t] without the (undirected) edge [u-v]; returns
    [t] unchanged when absent. Copies the rows, O(nodes + edges). *)

val add_edge : t -> Types.node_id -> Types.node_id -> t
(** [add_edge t u v] is [t] with the (undirected) edge [u-v] added. Rebuilds
    the graph through {!create} — fine for scenario setup, not for bulk
    construction (pass the full edge list to {!create} instead;
    {!Random_topo.ensure_connected} batches its stitches for the same
    reason). *)

val is_connected : t -> bool

val bfs_distances : t -> Types.node_id -> int array
(** [bfs_distances t src] is hop distances from [src]; unreachable nodes get
    [max_int]. *)

val shortest_path : t -> Types.node_id -> Types.node_id -> Types.node_id list option
(** [shortest_path t src dst] is a minimum-hop path from [src] to [dst]
    (inclusive of both), deterministic: each node's predecessor is the first
    one a breadth-first search over ascending rows dequeues. *)

val diameter : t -> int
(** Longest shortest path over all pairs; [max_int] if disconnected. *)

val average_path_length : t -> float
(** Mean hop distance over all connected ordered pairs. *)

val components : t -> Types.node_id list list
(** Connected components, each sorted, listed by smallest member. *)
