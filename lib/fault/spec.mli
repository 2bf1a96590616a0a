(** The full fault specification a run can be subjected to.

    [none] (the default everywhere) is the contract that makes fault
    injection safe to wire through the runner: with [is_none spec] true, a
    run's traces and metrics are bit-identical to a run without fault
    support — no extra RNG draws, no wrapper closures on the delivery path
    that alter event order — so every committed benchmark artifact and
    golden trace stays bit-identical. *)

type t = {
  noise : Perturb.t option;  (** per-link probabilistic perturbation *)
  flaps : Schedule.flap list;
  crashes : Schedule.crash list;
  rtx : Rtx.config option;
      (** [Some _] routes protocols with [uses_reliable_transport] through
          {!Rtx} sessions (genuine retransmission); [None] keeps the
          idealized lossless bypass *)
  fault_seed : int option;
      (** seed for fault randomness; defaults to the run's own seed. Distinct
          fault seeds vary the injected faults while holding the simulated
          world (flows, failure picks, protocol jitter) fixed. *)
}

val none : t

val is_none : t -> bool
(** True when the spec perturbs nothing and leaves transport idealized. *)

val validate : t -> (unit, string) result

val control_loss : ?rtx:bool -> float -> t
(** [control_loss p] drops each control unit with probability [p]
    ([Control_only] scope) and, by default, enables the reliable transport so
    BGP/LS survive the loss. [~rtx:false] keeps the idealized transport
    subject to the same loss — the "what breaks without retransmission"
    configuration. *)

(** {2 Seed derivation}

    Stable hashes from the run seed to per-entity fault streams, independent
    of the master RNG's position. *)

val link_seed : seed:int -> u:int -> v:int -> int
(** Per-directed-link perturbation stream. *)

val node_seed : seed:int -> node:int -> gen:int -> int
(** Protocol-instance RNG for generation [gen] of a rebooted node. *)

val schedule_seed : seed:int -> int
(** Stream for schedule interpretation: link picks and flap durations. *)
