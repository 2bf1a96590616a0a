(** Shared identifiers and drop taxonomy for the network substrate.

    The drop taxonomy is load-bearing for the paper's figures: Figure 3
    counts {!No_route}, Figure 4 counts {!Ttl_expired}, and the fault
    campaign separates {!Injected_loss}/{!Corrupted} from the organic
    reasons so injected noise never contaminates the baseline counts. *)

type node_id = int
(** Routers are numbered [0 .. n-1], densely — every array-indexed structure
    in the engine (routing tables, the CSR link table, BFS scratch) depends
    on ids being small contiguous ints. *)

type drop_reason =
  | No_route  (** the router had no next hop for the destination *)
  | Ttl_expired  (** TTL reached zero, i.e. the packet was caught in a loop *)
  | Queue_overflow  (** the outgoing link's FIFO queue was full *)
  | Link_down  (** the packet was sent onto, queued on, or in flight over a failed link *)
  | Injected_loss  (** discarded by the fault-injection perturbation layer *)
  | Corrupted
      (** payload corrupted in flight by fault injection; receivers discard
          corrupt frames, so this behaves as a loss with its own label *)

val pp_drop_reason : drop_reason Fmt.t
val string_of_drop_reason : drop_reason -> string
val all_drop_reasons : drop_reason list

val pp_path : node_id list Fmt.t
(** Renders a forwarding path as [[0 -> 5 -> 10]]. *)
