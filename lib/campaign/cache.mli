(** Content-addressed cell-result cache: the one store of finished cells.

    A campaign cell is a pure function of its inputs: the artifact schema,
    the code that computes it (the running executable), the sweep
    decomposition (family, mode preset, CLI overrides) and the cell's own
    axis coordinates (protocol, degree, seed). The cache names each
    finished {!Cell_result.t} by a digest over exactly those inputs, so a
    rerun of an unchanged campaign — finished or stopped part-way — finds
    every finished cell on disk, and a run after {e any} relevant change —
    rebuilt code, different preset, different seed — finds none of its
    stale predecessors. Quarantined cells are never stored.

    {2 Key derivation}

    The digest preimage is a single human-readable line (shown wrapped):

    {v rcsim-cell-cache v2 artifact-v<V> sha=<SHA> exe=<EXE> family=<F>
   mode=<M> runs=<R> degrees=<D> seed=<S> cell=<PROTO>:<DEG>:<SEED> v}

    [<V>] is {!Artifact.version}: a schema bump invalidates every entry.
    [<EXE>] is the hex [Digest.file Sys.executable_name], hashed once per
    process at the first key: a rebuild that changes the binary changes
    every key, committed or not. The {e family}, not the section name,
    identifies the decomposition, so sections of one family (e.g.
    [fig3]/[fig4]) share entries. The key is the MD5 of that line; the line
    itself is stored in the entry and compared on read, so a collision or
    a preimage-format drift degrades to a miss, never to a wrong cell.

    {2 Entry format and fault tolerance}

    One file per cell, [<dir>/<md5hex>.json], holding a single
    {!Frame.frame}d record — the preimage plus
    {!Cell_result.envelope_fields} — published atomically via
    {!Rcutil.Atomic_file}. Reads treat {e anything} unexpected (missing
    file, torn write, CRC mismatch, wrong kind, preimage mismatch, cell
    whose axes disagree with the request) as a miss, and writes swallow
    all I/O errors: a broken cache directory can slow a campaign down but
    can never fail it or corrupt its artifact. *)

type context = {
  git_sha : string;  (** from {!Artifact.git_sha}; ["unknown"] outside git *)
  family : string;  (** {!Sections.t} [family] — the decomposition identity *)
  mode : string;  (** sweep preset: ["quick"], ["standard"] or ["full"] *)
  runs : int option;  (** CLI [--runs] override, if given *)
  degrees : int list option;  (** CLI [--degrees] override, if given *)
  seed : int option;  (** CLI [--seed] override, if given *)
}
(** Everything that selects the sweep besides the cell axes themselves and
    the executable. *)

type t

val open_ : dir:string -> context -> t
(** [open_ ~dir ctx] creates [dir] (and parents) if needed and returns a
    cache handle scoped to [ctx]. *)

val key : t -> protocol:string -> degree:int -> seed:int -> string
(** The digest preimage for one cell — exposed for tests, which assert
    that every context and axis component perturbs it and that it names
    the executable. *)

val find : t -> protocol:string -> degree:int -> seed:int -> Cell_result.t option
(** Cache lookup. [Some cell] only when the stored entry round-trips with
    a valid CRC, matching preimage and matching cell axes; every failure
    mode is a miss. Updates {!stats}. *)

val store : t -> Cell_result.t -> unit
(** Publish one finished cell (series included) under its derived key.
    Atomic (tmp + fsync + rename); concurrent writers of the same key are
    harmless because their payloads are identical. I/O failures are
    swallowed. *)

val stats : t -> int * int
(** [(hits, misses)] observed by {!find} since [open_]. *)
