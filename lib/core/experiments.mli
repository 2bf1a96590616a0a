(** Seeded (protocol, degree) sweeps.

    A {!sweep} names the grid every paper figure is computed over: for each
    degree, [runs] simulations with consecutive seeds starting at
    [base.seed]. The same master seed sequence is used for every protocol, so
    each seed sees the same sender/receiver attachment across protocols (the
    paper's controlled comparison). Campaign sections decompose a sweep into
    cells and aggregate them; this module only describes it. *)

type sweep = {
  degrees : int list;
  runs : int;  (** simulations per (protocol, degree) cell; the paper uses 10 *)
  base : Config.t;
}

val paper_sweep : sweep
(** Degrees 3..8, 10 runs per cell, {!Config.default}. *)

val quick_sweep : sweep
(** Degrees [3; 4; 6], 3 runs, {!Config.quick}; for tests and smoke runs. *)

val scale : ?runs:int -> ?degrees:int list -> sweep -> sweep
