type node_id = int

type drop_reason =
  | No_route
  | Ttl_expired
  | Queue_overflow
  | Link_down
  | Injected_loss
  | Corrupted

let string_of_drop_reason = function
  | No_route -> "no-route"
  | Ttl_expired -> "ttl-expired"
  | Queue_overflow -> "queue-overflow"
  | Link_down -> "link-down"
  | Injected_loss -> "injected-loss"
  | Corrupted -> "corrupted"

let pp_drop_reason ppf r = Fmt.string ppf (string_of_drop_reason r)

let all_drop_reasons =
  [ No_route; Ttl_expired; Queue_overflow; Link_down; Injected_loss; Corrupted ]

let pp_path ppf path =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " -> ") int) path
