(** Declarative fault schedules: link flapping and node crash/reboot.

    A schedule is pure data; the runner materializes it against a topology
    and a schedule RNG (derived from the run seed) into timed link-state
    transitions. Keeping the data and the interpretation separate is what
    lets fuzzers generate, shrink, and print schedules. *)

type link_choice =
  | Edge of int * int  (** this specific undirected link *)
  | Any_edge  (** the interpreter picks one with its schedule RNG *)

type flap = {
  flap_link : link_choice;
  flap_start : float;  (** first down transition, absolute seconds *)
  flap_cycles : int;  (** number of down/up cycles; the link ends up *)
  down_min : float;
  down_max : float;  (** each down duration ~ U[down_min, down_max] *)
  up_min : float;
  up_max : float;  (** each up gap ~ U[up_min, up_max] *)
}

type crash = {
  crash_node : int;
  crash_at : float;
  reboot_after : float option;
      (** [None]: the node stays dead. [Some d]: after [d] seconds the node
          restarts with a {e fresh} protocol instance — all routing state
          lost, adjacent links restored. *)
}

val flap :
  ?link:link_choice ->
  start:float ->
  cycles:int ->
  down:float ->
  up:float ->
  unit ->
  flap
(** Fixed-duration convenience constructor: [down]/[up] seconds per cycle. *)

val validate_flap : flap -> (unit, string) result
val validate_crash : crash -> (unit, string) result

type transition = { at : float; up : bool }

val flap_transitions : Dessim.Rng.t -> flap -> transition list
(** Materialize one flap into its ordered transition list (alternating
    down/up, beginning with down at [flap_start], ending up). Deterministic
    in the RNG state: equal streams yield equal schedules. *)
