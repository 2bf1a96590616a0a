(** Data packets.

    A packet records its own journey (how many routers it visited, and which)
    so the study harness can detect transient forwarding loops, exactly as
    the paper's trace-file analysis does. *)

type t = {
  id : int;
  src : Types.node_id;
  dst : Types.node_id;
  size_bits : int;
  sent_at : float;
  mutable ttl : int;
  mutable visit_count : int;  (** routers visited, repeats included *)
  mutable visits : Types.node_id list;
      (** visited routers with ids >= 126, most recent first; lower ids are
          kept only in the bitsets below *)
  mutable revisited : bool;  (** some router was visited twice *)
  mutable vmask0 : int;  (** visited-id bitset, ids 0..62 *)
  mutable vmask1 : int;  (** visited-id bitset, ids 63..125 *)
}

val create :
  id:int ->
  src:Types.node_id ->
  dst:Types.node_id ->
  size_bits:int ->
  ttl:int ->
  sent_at:float ->
  t

val visit : t -> Types.node_id -> unit
(** [visit p n] records that [p] is being processed by router [n]. *)

val visited : t -> Types.node_id -> bool
(** [visited p n] is true when [n] already appears in [p]'s journey. Unlike
    {!visit} it never mutates the packet. *)

val hop_count : t -> int
(** [hop_count p] is the number of routers visited so far minus one. *)

val looped : t -> bool
(** [looped p] is true when some router appears twice in [p]'s journey. *)
