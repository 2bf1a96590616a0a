(** Campaign descriptions: how each section decomposes into cells and how
    its tables are rendered back out of a merged artifact.

    A section is the one description of how a sweep result is computed; the
    CLI's [campaign], [fig] and [compare] commands all run section tasks. It
    knows three things:

    - {b decomposition}: [tasks sweep] lays the sweep out as a flat array of
      independent cells, one per (protocol, degree, seed), in canonical
      cell-key order. The array order {e is} the merge order, so results are
      independent of which worker ran what.
    - {b family}: sections that share the exact same cells (the paper-grid
      figures 3/4/5/6/7 and the overhead table all project the same sweep)
      carry the same [family] tag, letting callers run the cells once and
      emit several artifacts.
    - {b rendering}: [render ppf artifact] prints the section's tables from
      the artifact alone — never from live simulation state — so a table
      shown after a run and a table regenerated later from the committed
      [BENCH_*.json] are the same bytes.

    Sections whose scenarios need extra knobs (the multiflow section halves
    the per-flow rate, the RFD section drives a flapping link) encode those
    knobs here, in their task builders, keeping the CLI free of experiment
    logic. *)

type task = {
  t_protocol : string;
  t_degree : int;
  t_seed : int;
  t_run : unit -> Cell_result.t;
      (** runs one full seeded simulation; pure from its arguments, so safe
          to execute on any {!Pool} worker *)
}

type t = {
  name : string;  (** CLI / artifact-file name, e.g. ["fig3"] *)
  family : string;  (** sections with equal [family] have identical tasks *)
  title : string;  (** the heading printed above the section's tables *)
  doc : string;  (** one-line description for [--help] output *)
  include_series : bool;  (** serialize per-cell time series into the
                              artifact (figs 5 and 7) *)
  tasks : Convergence.Experiments.sweep -> task array;
  render : Format.formatter -> Artifact.t -> unit;
}

val ablation_scale :
  full:bool -> Convergence.Experiments.sweep -> Convergence.Experiments.sweep
(** The traditional bench shrink for the ablation / extension sections: when
    [full] is false, degrees are capped at 6 and runs at 5 (these scenarios
    cost several simulations per cell). The identity when [full]. *)

val sweep_for :
  t -> full:bool -> Convergence.Experiments.sweep -> Convergence.Experiments.sweep
(** [sweep_for section ~full sweep] is the sweep the section actually runs:
    [sweep] itself for the paper family and the scenarios section,
    {!ablation_scale} of it for ablations and extensions. Callers (bench and
    the CLI) use this so both always agree on cell decomposition. *)

val fixed_axis : t -> string option
(** [fixed_axis section] is [Some axis] for the sections whose cells ignore
    the sweep's [degrees] and [runs] — [scenarios], [perf] and [topo] — naming
    the axis they sweep instead; [None] for every other section. The CLI
    rejects [--degrees] and [--runs] for these sections rather than let the
    flags change only the cache key. *)

val all : t list
(** Every artifact-backed section, in registry order: [fig3], [fig4],
    [fig5], [fig6], [fig7], [overhead], [scenarios], [ablation-mrai],
    [ablation-damping], [ablation-rfd], [ext-ls], [ext-multiflow],
    [ext-transport], [faults], [perf], [topo], [resilience]. (The bechamel
    micro-benchmarks stay in the bench binary: their output is pure
    wall-clock and has no deterministic part to archive.)

    The [faults] section sweeps a fault axis instead of mesh degree, reusing
    each cell's degree field as the axis code: loss cells store their
    control-plane loss percentage (0/2/5/10), flap cells store [100 + period]
    for three down/up cycles of [period] seconds. Its extras are
    [delivery_ratio], [retransmissions] and [injected_ctrl_drops].

    The [topo] section sweeps generator family × node count: the axis code is
    [family_index * 100_000 + node_count] with families mesh/ER/BA/
    hierarchical indexed 0-3, node counts 49/256/1024 (4096 in full mode),
    one seed per cell, and per-cell timelines scaled to graph reach ×
    protocol pacing. All four protocols run at <= 256 nodes, RIP and DBF at
    1024, RIP alone at 4096 (the memory walls are audited in DESIGN.md §15).
    Each cell runs the quiescence BFS oracle
    ({!Check.Oracle.check}); its extras are [delivery_ratio],
    [oracle_mismatches] and [edges]. *)

val names : string list

val find : string -> t option

val grid :
  name:string ->
  ?title:string ->
  engines:Convergence.Engine_registry.t list ->
  unit ->
  t
(** [grid ~name ~engines ()] is a minimal scalar section over [engines]
    (standard metrics only, fig3-style drops table): what [rcsim compare]
    runs over every engine, and the building block the unit tests use to run
    tiny deterministic campaigns without dragging in a full paper sweep. *)
