(** Offline trace analysis: read a JSONL trace back and rebuild the views the
    paper argues from — per-cause drop timelines, loop episodes, link-outage
    episodes, and packet conservation totals. This is what the [rcsim trace]
    subcommand runs. *)

type parse_stats = {
  parsed : int;  (** lines decoded into a known event *)
  opaque : int;  (** record-shaped lines whose event this build doesn't know *)
  skipped : int;  (** lines that are not trace records at all *)
}

(** {2 Forward-compatible line items}

    A trace written by a newer build may contain event names this build does
    not decode. Such lines are record-shaped (a JSON object with [ts], [seq]
    and a string [ev]) but fail {!Sink.record_of_json}; they are preserved
    verbatim as {!Opaque} items so that reading a trace and writing it back
    out never silently destroys events. Only lines that are not records at
    all (truncated writes, foreign output mixed into the stream) are
    dropped — and counted in [skipped]. *)

type item =
  | Record of Sink.record  (** a decoded event *)
  | Opaque of string  (** an unknown-event line, kept verbatim (trimmed) *)

val items_of_lines : string list -> item list * parse_stats
(** Blank lines are ignored; malformed lines are counted in [skipped] rather
    than failing, so a trace mixed with other output still replays. *)

val records_of_items : item list -> Sink.record list
(** The decoded records, in order, opaque lines elided. *)

val line_of_item : item -> string
(** The JSONL line for an item: re-encoded for [Record], verbatim for
    [Opaque]. Writing every item back with this function round-trips a trace
    without losing unknown events. *)

val of_lines : string list -> Sink.record list * parse_stats
(** [items_of_lines] filtered to decoded records (same stats). *)

val of_string : string -> Sink.record list * parse_stats

val read_file : string -> Sink.record list * parse_stats
(** @raise Sys_error when the file cannot be read. *)

val event_counts : Sink.record list -> (string * int) list
(** Occurrences per event name, most frequent first. *)

(** {2 Packet conservation} *)

type totals = {
  sent : int;
  delivered : int;
  drops : (Netsim.Types.drop_reason * int) list;
      (** one entry per {!Netsim.Types.all_drop_reasons} member, in order *)
}

val totals : ?flow:int -> Sink.record list -> totals
(** Reconstructed from [Packet_sent] / [Packet_delivered] / [Packet_dropped]
    events, optionally restricted to one flow. *)

val total_drops : totals -> int
val in_flight : totals -> int

(** {2 Per-cause drop timeline} *)

type timeline = {
  t0 : float;
  bucket_width : float;
  rows : (float * (Netsim.Types.drop_reason * int) list) list;
      (** only non-empty buckets, chronological; each row is the bucket's
          start time and its drop counts per cause *)
}

val drop_timeline : ?bucket:float -> Sink.record list -> timeline
(** [bucket] is the width in simulation seconds (default 1.0).
    @raise Invalid_argument if [bucket <= 0]. *)

(** {2 Loop episodes} *)

type loop_episode = {
  le_flow : int;
  le_cycle : int list;
  le_started : float;  (** [nan] when the enter event is missing *)
  le_ended : float option;  (** [None]: unresolved at end of trace *)
}

val loop_report : Sink.record list -> loop_episode list
(** Pairs [Loop_enter]/[Loop_exit] events per flow, tolerating truncated
    traces. Chronological by start time. *)

val episode_duration : loop_episode -> float option

(** {2 Link outage episodes} *)

type link_episode = {
  lk_u : int;
  lk_v : int;  (** canonical: [lk_u <= lk_v] *)
  lk_down : float;  (** [nan] when the failure event is missing *)
  lk_up : float option;  (** [None]: still down at end of trace *)
}

val link_report : Sink.record list -> link_episode list
(** Pairs [Link_failed]/[Link_healed] events per link, tolerating truncated
    traces; chronological by failure time. The offline audit for flap
    schedules: a run with a [cycles]-cycle flap on one link shows exactly
    that many finished episodes on it, each the scheduled [down] seconds
    long. *)

val link_episode_duration : link_episode -> float option

(** {2 Fast-reroute report} *)

type frr_episode = {
  fe_node : int;  (** the router whose local detection opened the window *)
  fe_started : float;  (** first [Frr_activated] at the node *)
  fe_ended : float option;
      (** when the node's last detected-down neighbor healed; [None] when
          still detected-down at end of trace *)
  fe_forwards : int;  (** backup-forwarded events at the node in the window *)
  fe_packets : int;  (** distinct packets among them — "packets saved" *)
}

type frr_window = {
  fw_started : float;
  fw_ended : float;
  fw_count : int;  (** [Frr_exhausted] events in the burst *)
}

type frr_summary = {
  fr_installs : int;
  fr_activations : int;
  fr_forwards : int;
  fr_exhausted : int;
  fr_episodes : frr_episode list;  (** by start time *)
  fr_exhausted_windows : frr_window list;  (** by start time *)
}

val frr_report : ?gap:float -> Sink.record list -> frr_summary
(** Reconstructs the fast-reroute story of one trace from the [Frr_*]
    events: per-router local-detection episodes with the packets their
    backups carried, plus bursts of [Frr_exhausted] residual losses
    (events closer than [?gap] seconds — default 1.0 — form one window).
    Backup forwards outside any detection window (graceful degradation
    around a withdrawn primary at a non-detecting router) count toward
    [fr_forwards] only. All-zero summary on an frr-off trace.
    @raise Invalid_argument when [gap <= 0]. *)

val pp_totals : totals Fmt.t
val pp_timeline : timeline Fmt.t
val pp_loop_episode : loop_episode Fmt.t
val pp_link_episode : link_episode Fmt.t
val pp_frr_episode : frr_episode Fmt.t
val pp_frr_window : frr_window Fmt.t
