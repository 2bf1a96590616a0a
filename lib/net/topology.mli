(** Immutable undirected graphs with unit-cost edges.

    All protocols in the paper run over unit-cost links, so shortest paths are
    BFS paths.

    Graphs are built by {!Mesh} (the paper's regular family), {!Random_topo}
    (ER/Waxman/BA/hierarchical) and {!Classic} (test fixtures). Adjacency is
    stored as one sorted neighbor list per node beside the canonical edge
    set, so the representation is O(nodes + edges) and generation scales to
    the campaign's 10k-node graphs. {!neighbors} is O(1); {!degree} and
    {!has_edge} are linear in the node's degree; BFS is O(nodes + edges).
    The all-pairs helpers ({!diameter}, {!average_path_length}) remain
    O(nodes × edges) and are meant for reporting, not hot paths. *)

type t

val create : nodes:int -> edges:(Types.node_id * Types.node_id) list -> t
(** [create ~nodes ~edges] builds a graph on nodes [0 .. nodes-1]. Edges are
    deduplicated; self-loops and out-of-range endpoints raise
    [Invalid_argument]. *)

val node_count : t -> int

val edge_count : t -> int

val edges : t -> (Types.node_id * Types.node_id) list
(** Canonical edge list, each as [(u, v)] with [u < v], sorted. *)

val neighbors : t -> Types.node_id -> Types.node_id list
(** Sorted ascending — callers (the engine's CSR link table, the oracle's
    BFS) rely on the order being deterministic. *)

val degree : t -> Types.node_id -> int

val has_edge : t -> Types.node_id -> Types.node_id -> bool
(** [has_edge t u v] scans [u]'s sorted neighbor list with an int equality,
    so it costs O(degree u) and allocates nothing. Ids outside
    [0 .. node_count t - 1] give [false]. *)

val remove_edge : t -> Types.node_id -> Types.node_id -> t
(** [remove_edge t u v] is [t] without the (undirected) edge [u-v]; returns
    [t] unchanged when absent. Rebuilds the graph — O(edges log edges), fine
    for scenario setup, not for bulk construction (pass the full edge list to
    {!create} instead; {!Random_topo.ensure_connected} batches its stitches
    for the same reason). *)

val add_edge : t -> Types.node_id -> Types.node_id -> t
(** [add_edge t u v] is [t] with the (undirected) edge [u-v] added; same
    rebuild cost as {!remove_edge}. *)

val is_connected : t -> bool

val bfs_distances : t -> Types.node_id -> int array
(** [bfs_distances t src] is hop distances from [src]; unreachable nodes get
    [max_int]. *)

val shortest_path : t -> Types.node_id -> Types.node_id -> Types.node_id list option
(** [shortest_path t src dst] is a minimum-hop path from [src] to [dst]
    (inclusive of both), deterministic (smallest-id predecessor wins). *)

val diameter : t -> int
(** Longest shortest path over all pairs; [max_int] if disconnected. *)

val average_path_length : t -> float
(** Mean hop distance over all connected ordered pairs. *)

val components : t -> Types.node_id list list
(** Connected components, each sorted, listed by smallest member. *)
