type category = Data | Control | Env | Sched

let all_categories = [ Data; Control; Env; Sched ]

let category_index = function Data -> 0 | Control -> 1 | Env -> 2 | Sched -> 3

let string_of_category = function
  | Data -> "data"
  | Control -> "control"
  | Env -> "env"
  | Sched -> "sched"

type severity = Debug | Info | Warn

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

let string_of_severity = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"

type path_kind = Path_complete | Path_broken | Path_looping

let string_of_path_kind = function
  | Path_complete -> "complete"
  | Path_broken -> "broken"
  | Path_looping -> "looping"

let path_kind_of_string s =
  match String.lowercase_ascii s with
  | "complete" -> Some Path_complete
  | "broken" -> Some Path_broken
  | "looping" -> Some Path_looping
  | _ -> None

type msg_kind = Update | Withdrawal | Mixed

let string_of_msg_kind = function
  | Update -> "update"
  | Withdrawal -> "withdrawal"
  | Mixed -> "mixed"

let msg_kind_of_string s =
  match String.lowercase_ascii s with
  | "update" -> Some Update
  | "withdrawal" | "withdraw" -> Some Withdrawal
  | "mixed" -> Some Mixed
  | _ -> None

type t =
  (* data plane *)
  | Packet_sent of { flow : int; pkt : int; src : int; dst : int }
  | Packet_forwarded of { pkt : int; node : int; next_hop : int; ttl : int }
  | Packet_delivered of { flow : int; pkt : int; delay : float; looped : bool }
  | Packet_dropped of {
      flow : int;
      pkt : int;
      reason : Netsim.Types.drop_reason;
      looped : bool;
    }
  | Loop_enter of { flow : int; cycle : int list }
  | Loop_exit of { flow : int; cycle : int list; duration : float }
  (* fast reroute *)
  | Frr_installed of { node : int; dst : int; backup : int }
  | Frr_activated of { node : int; neighbor : int }
  | Frr_forwarded of { pkt : int; node : int; next_hop : int; ttl : int }
  | Frr_exhausted of { pkt : int; node : int }
  (* control plane *)
  | Ctrl_sent of { proto : string; src : int; dst : int; kind : msg_kind; bits : int }
  | Ctrl_received of { proto : string; src : int; dst : int; kind : msg_kind }
  | Ctrl_lost of { reason : Netsim.Types.drop_reason }
  | Timer_fired of { node : int }
  | Mrai_defer of { node : int; neighbor : int; dsts : int }
  (* environment *)
  | Link_failed of { u : int; v : int }
  | Link_healed of { u : int; v : int }
  | Route_changed of { node : int; dst : int }
  | Path_changed of { flow : int; kind : path_kind; path : int list }
  | Fault_injected of { u : int; v : int; what : string }
  | Node_crash of { node : int }
  | Node_reboot of { node : int }
  (* reliable control transport *)
  | Rtx_sent of { proto : string; src : int; dst : int; seq : int; attempt : int }
  | Rtx_timeout of { src : int; dst : int; rto : float; attempt : int }
  | Session_reset of { src : int; dst : int; epoch : int }
  (* scheduler *)
  | Sched_stats of { events : int; max_queue : int; cpu_s : float }

let category = function
  | Packet_sent _ | Packet_forwarded _ | Packet_delivered _ | Packet_dropped _
  | Loop_enter _ | Loop_exit _ | Frr_forwarded _ | Frr_exhausted _ ->
    Data
  | Ctrl_sent _ | Ctrl_received _ | Ctrl_lost _ | Timer_fired _ | Mrai_defer _
  | Rtx_sent _ | Rtx_timeout _ | Session_reset _ ->
    Control
  | Link_failed _ | Link_healed _ | Route_changed _ | Path_changed _
  | Fault_injected _ | Node_crash _ | Node_reboot _ | Frr_installed _
  | Frr_activated _ ->
    Env
  | Sched_stats _ -> Sched

let severity = function
  | Packet_forwarded _ | Timer_fired _ | Frr_installed _ -> Debug
  | Packet_dropped _ | Loop_enter _ | Ctrl_lost _ | Link_failed _
  | Link_healed _ | Node_crash _ | Node_reboot _ | Rtx_timeout _
  | Session_reset _ ->
    Warn
  | Packet_sent _ | Packet_delivered _ | Loop_exit _ | Ctrl_sent _
  | Ctrl_received _ | Mrai_defer _ | Route_changed _ | Path_changed _
  | Fault_injected _ | Rtx_sent _ | Sched_stats _ | Frr_activated _
  | Frr_forwarded _ | Frr_exhausted _ ->
    Info

let name = function
  | Packet_sent _ -> "packet_sent"
  | Packet_forwarded _ -> "packet_forwarded"
  | Packet_delivered _ -> "packet_delivered"
  | Packet_dropped _ -> "packet_dropped"
  | Loop_enter _ -> "loop_enter"
  | Loop_exit _ -> "loop_exit"
  | Frr_installed _ -> "frr_installed"
  | Frr_activated _ -> "frr_activated"
  | Frr_forwarded _ -> "frr_forwarded"
  | Frr_exhausted _ -> "frr_exhausted"
  | Ctrl_sent _ -> "ctrl_sent"
  | Ctrl_received _ -> "ctrl_received"
  | Ctrl_lost _ -> "ctrl_lost"
  | Timer_fired _ -> "timer_fired"
  | Mrai_defer _ -> "mrai_defer"
  | Link_failed _ -> "link_failed"
  | Link_healed _ -> "link_healed"
  | Route_changed _ -> "route_changed"
  | Path_changed _ -> "path_changed"
  | Fault_injected _ -> "fault_injected"
  | Node_crash _ -> "node_crash"
  | Node_reboot _ -> "node_reboot"
  | Rtx_sent _ -> "rtx_sent"
  | Rtx_timeout _ -> "rtx_timeout"
  | Session_reset _ -> "session_reset"
  | Sched_stats _ -> "sched_stats"

let pp ppf ev =
  match ev with
  | Packet_sent { flow; pkt; src; dst } ->
    Fmt.pf ppf "packet %d sent (flow %d, %d -> %d)" pkt flow src dst
  | Packet_forwarded { pkt; node; next_hop; ttl } ->
    Fmt.pf ppf "packet %d forwarded %d -> %d (ttl %d)" pkt node next_hop ttl
  | Packet_delivered { flow; pkt; delay; looped } ->
    Fmt.pf ppf "packet %d delivered (flow %d, delay %.4fs%s)" pkt flow delay
      (if looped then ", looped" else "")
  | Packet_dropped { flow; pkt; reason; looped } ->
    Fmt.pf ppf "packet %d dropped: %a (flow %d%s)" pkt
      Netsim.Types.pp_drop_reason reason flow
      (if looped then ", looped" else "")
  | Loop_enter { flow; cycle } ->
    Fmt.pf ppf "flow %d path enters loop %a" flow Netsim.Types.pp_path cycle
  | Loop_exit { flow; cycle; duration } ->
    Fmt.pf ppf "flow %d path leaves loop %a after %.2fs" flow
      Netsim.Types.pp_path cycle duration
  | Frr_installed { node; dst; backup } ->
    Fmt.pf ppf "router %d installs backup next hop %d for %d" node backup dst
  | Frr_activated { node; neighbor } ->
    Fmt.pf ppf "router %d activates fast reroute around %d" node neighbor
  | Frr_forwarded { pkt; node; next_hop; ttl } ->
    Fmt.pf ppf "packet %d rerouted %d -> %d (ttl %d)" pkt node next_hop ttl
  | Frr_exhausted { pkt; node } ->
    Fmt.pf ppf "packet %d has no usable backup at %d" pkt node
  | Ctrl_sent { proto; src; dst; kind; bits } ->
    Fmt.pf ppf "%s %s %d -> %d (%d bits)" proto (string_of_msg_kind kind) src
      dst bits
  | Ctrl_received { proto; src; dst; kind } ->
    Fmt.pf ppf "%s %s received at %d from %d" proto (string_of_msg_kind kind)
      dst src
  | Ctrl_lost { reason } ->
    Fmt.pf ppf "control message lost: %a" Netsim.Types.pp_drop_reason reason
  | Timer_fired { node } -> Fmt.pf ppf "timer fired at router %d" node
  | Mrai_defer { node; neighbor; dsts } ->
    Fmt.pf ppf "router %d defers %d destination(s) to %d behind MRAI" node
      dsts neighbor
  | Link_failed { u; v } -> Fmt.pf ppf "link %d-%d fails" u v
  | Link_healed { u; v } -> Fmt.pf ppf "link %d-%d heals" u v
  | Route_changed { node; dst } ->
    Fmt.pf ppf "router %d best route to %d changed" node dst
  | Path_changed { flow; kind; path } ->
    Fmt.pf ppf "flow %d path now %s %a" flow (string_of_path_kind kind)
      Netsim.Types.pp_path path
  | Fault_injected { u; v; what } ->
    Fmt.pf ppf "fault on link %d-%d: %s" u v what
  | Node_crash { node } -> Fmt.pf ppf "router %d crashes" node
  | Node_reboot { node } -> Fmt.pf ppf "router %d reboots" node
  | Rtx_sent { proto; src; dst; seq; attempt } ->
    Fmt.pf ppf "%s rtx %d -> %d seq %d (attempt %d)" proto src dst seq attempt
  | Rtx_timeout { src; dst; rto; attempt } ->
    Fmt.pf ppf "rtx timeout %d -> %d after %.3fs (attempt %d)" src dst rto
      attempt
  | Session_reset { src; dst; epoch } ->
    Fmt.pf ppf "session %d -> %d reset (epoch %d)" src dst epoch
  | Sched_stats { events; max_queue; cpu_s } ->
    Fmt.pf ppf "scheduler: %d events fired, max queue depth %d, %.3fs cpu"
      events max_queue cpu_s

(* ---------- JSON (de)serialization ---------- *)

let drop_reason_to_string = Netsim.Types.string_of_drop_reason

let drop_reason_of_string s =
  List.find_opt
    (fun r -> Netsim.Types.string_of_drop_reason r = s)
    Netsim.Types.all_drop_reasons

let to_fields ev : (string * Json.t) list =
  let open Json in
  ("ev", String (name ev))
  ::
  (match ev with
  | Packet_sent { flow; pkt; src; dst } ->
    [ ("flow", Int flow); ("pkt", Int pkt); ("src", Int src); ("dst", Int dst) ]
  | Packet_forwarded { pkt; node; next_hop; ttl } ->
    [ ("pkt", Int pkt); ("node", Int node); ("next", Int next_hop); ("ttl", Int ttl) ]
  | Packet_delivered { flow; pkt; delay; looped } ->
    [
      ("flow", Int flow);
      ("pkt", Int pkt);
      ("delay", Float delay);
      ("looped", Bool looped);
    ]
  | Packet_dropped { flow; pkt; reason; looped } ->
    [
      ("flow", Int flow);
      ("pkt", Int pkt);
      ("reason", String (drop_reason_to_string reason));
      ("looped", Bool looped);
    ]
  | Loop_enter { flow; cycle } ->
    [ ("flow", Int flow); ("cycle", List (List.map (fun n -> Int n) cycle)) ]
  | Loop_exit { flow; cycle; duration } ->
    [
      ("flow", Int flow);
      ("cycle", List (List.map (fun n -> Int n) cycle));
      ("duration", Float duration);
    ]
  | Frr_installed { node; dst; backup } ->
    [ ("node", Int node); ("dst", Int dst); ("backup", Int backup) ]
  | Frr_activated { node; neighbor } ->
    [ ("node", Int node); ("neighbor", Int neighbor) ]
  | Frr_forwarded { pkt; node; next_hop; ttl } ->
    [ ("pkt", Int pkt); ("node", Int node); ("next", Int next_hop); ("ttl", Int ttl) ]
  | Frr_exhausted { pkt; node } -> [ ("pkt", Int pkt); ("node", Int node) ]
  | Ctrl_sent { proto; src; dst; kind; bits } ->
    [
      ("proto", String proto);
      ("src", Int src);
      ("dst", Int dst);
      ("kind", String (string_of_msg_kind kind));
      ("bits", Int bits);
    ]
  | Ctrl_received { proto; src; dst; kind } ->
    [
      ("proto", String proto);
      ("src", Int src);
      ("dst", Int dst);
      ("kind", String (string_of_msg_kind kind));
    ]
  | Ctrl_lost { reason } -> [ ("reason", String (drop_reason_to_string reason)) ]
  | Timer_fired { node } -> [ ("node", Int node) ]
  | Mrai_defer { node; neighbor; dsts } ->
    [ ("node", Int node); ("neighbor", Int neighbor); ("dsts", Int dsts) ]
  | Link_failed { u; v } -> [ ("u", Int u); ("v", Int v) ]
  | Link_healed { u; v } -> [ ("u", Int u); ("v", Int v) ]
  | Route_changed { node; dst } -> [ ("node", Int node); ("dst", Int dst) ]
  | Path_changed { flow; kind; path } ->
    [
      ("flow", Int flow);
      ("pkind", String (string_of_path_kind kind));
      ("path", List (List.map (fun n -> Int n) path));
    ]
  | Fault_injected { u; v; what } ->
    [ ("u", Int u); ("v", Int v); ("what", String what) ]
  | Node_crash { node } -> [ ("node", Int node) ]
  | Node_reboot { node } -> [ ("node", Int node) ]
  | Rtx_sent { proto; src; dst; seq; attempt } ->
    [
      ("proto", String proto);
      ("src", Int src);
      ("dst", Int dst);
      ("seq", Int seq);
      ("attempt", Int attempt);
    ]
  | Rtx_timeout { src; dst; rto; attempt } ->
    [
      ("src", Int src);
      ("dst", Int dst);
      ("rto", Float rto);
      ("attempt", Int attempt);
    ]
  | Session_reset { src; dst; epoch } ->
    [ ("src", Int src); ("dst", Int dst); ("epoch", Int epoch) ]
  | Sched_stats { events; max_queue; cpu_s } ->
    [ ("events", Int events); ("max_queue", Int max_queue); ("cpu_s", Float cpu_s) ])

let of_fields json : t option =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k json) Json.to_int in
  let float k = Option.bind (Json.member k json) Json.to_float in
  let str k = Option.bind (Json.member k json) Json.to_string_val in
  let bool k = Option.bind (Json.member k json) Json.to_bool in
  let ints k = Option.bind (Json.member k json) Json.to_int_list in
  let* ev = str "ev" in
  match ev with
  | "packet_sent" ->
    let* flow = int "flow" in
    let* pkt = int "pkt" in
    let* src = int "src" in
    let* dst = int "dst" in
    Some (Packet_sent { flow; pkt; src; dst })
  | "packet_forwarded" ->
    let* pkt = int "pkt" in
    let* node = int "node" in
    let* next_hop = int "next" in
    let* ttl = int "ttl" in
    Some (Packet_forwarded { pkt; node; next_hop; ttl })
  | "packet_delivered" ->
    let* flow = int "flow" in
    let* pkt = int "pkt" in
    let* delay = float "delay" in
    let* looped = bool "looped" in
    Some (Packet_delivered { flow; pkt; delay; looped })
  | "packet_dropped" ->
    let* flow = int "flow" in
    let* pkt = int "pkt" in
    let* reason = Option.bind (str "reason") drop_reason_of_string in
    let* looped = bool "looped" in
    Some (Packet_dropped { flow; pkt; reason; looped })
  | "loop_enter" ->
    let* flow = int "flow" in
    let* cycle = ints "cycle" in
    Some (Loop_enter { flow; cycle })
  | "loop_exit" ->
    let* flow = int "flow" in
    let* cycle = ints "cycle" in
    let* duration = float "duration" in
    Some (Loop_exit { flow; cycle; duration })
  | "frr_installed" ->
    let* node = int "node" in
    let* dst = int "dst" in
    let* backup = int "backup" in
    Some (Frr_installed { node; dst; backup })
  | "frr_activated" ->
    let* node = int "node" in
    let* neighbor = int "neighbor" in
    Some (Frr_activated { node; neighbor })
  | "frr_forwarded" ->
    let* pkt = int "pkt" in
    let* node = int "node" in
    let* next_hop = int "next" in
    let* ttl = int "ttl" in
    Some (Frr_forwarded { pkt; node; next_hop; ttl })
  | "frr_exhausted" ->
    let* pkt = int "pkt" in
    let* node = int "node" in
    Some (Frr_exhausted { pkt; node })
  | "ctrl_sent" ->
    let* proto = str "proto" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* kind = Option.bind (str "kind") msg_kind_of_string in
    let* bits = int "bits" in
    Some (Ctrl_sent { proto; src; dst; kind; bits })
  | "ctrl_received" ->
    let* proto = str "proto" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* kind = Option.bind (str "kind") msg_kind_of_string in
    Some (Ctrl_received { proto; src; dst; kind })
  | "ctrl_lost" ->
    let* reason = Option.bind (str "reason") drop_reason_of_string in
    Some (Ctrl_lost { reason })
  | "timer_fired" ->
    let* node = int "node" in
    Some (Timer_fired { node })
  | "mrai_defer" ->
    let* node = int "node" in
    let* neighbor = int "neighbor" in
    let* dsts = int "dsts" in
    Some (Mrai_defer { node; neighbor; dsts })
  | "link_failed" ->
    let* u = int "u" in
    let* v = int "v" in
    Some (Link_failed { u; v })
  | "link_healed" ->
    let* u = int "u" in
    let* v = int "v" in
    Some (Link_healed { u; v })
  | "route_changed" ->
    let* node = int "node" in
    let* dst = int "dst" in
    Some (Route_changed { node; dst })
  | "path_changed" ->
    let* flow = int "flow" in
    let* kind = Option.bind (str "pkind") path_kind_of_string in
    let* path = ints "path" in
    Some (Path_changed { flow; kind; path })
  | "fault_injected" ->
    let* u = int "u" in
    let* v = int "v" in
    let* what = str "what" in
    Some (Fault_injected { u; v; what })
  | "node_crash" ->
    let* node = int "node" in
    Some (Node_crash { node })
  | "node_reboot" ->
    let* node = int "node" in
    Some (Node_reboot { node })
  | "rtx_sent" ->
    let* proto = str "proto" in
    let* src = int "src" in
    let* dst = int "dst" in
    let* seq = int "seq" in
    let* attempt = int "attempt" in
    Some (Rtx_sent { proto; src; dst; seq; attempt })
  | "rtx_timeout" ->
    let* src = int "src" in
    let* dst = int "dst" in
    let* rto = float "rto" in
    let* attempt = int "attempt" in
    Some (Rtx_timeout { src; dst; rto; attempt })
  | "session_reset" ->
    let* src = int "src" in
    let* dst = int "dst" in
    let* epoch = int "epoch" in
    Some (Session_reset { src; dst; epoch })
  | "sched_stats" ->
    let* events = int "events" in
    let* max_queue = int "max_queue" in
    let* cpu_s = float "cpu_s" in
    Some (Sched_stats { events; max_queue; cpu_s })
  | _ -> None
