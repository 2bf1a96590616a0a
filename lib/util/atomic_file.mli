(** Crash-safe file writes: tmp file + fsync + atomic rename.

    Every JSON/JSONL/trace artifact this project produces is a {e result}
    file: a torn, half-written one is worse than none, because downstream
    tooling (campaign diff, validate, replay) would read garbage that looks
    like data. This module is the single place result files are allowed to
    be created. The contract:

    - the content is written to a temporary file in the {e same directory}
      (rename is only atomic within a filesystem);
    - the temporary file is flushed and fsync'd before the rename, so the
      bytes are durable before the name is;
    - [Unix.rename] then publishes the file in one atomic step: any reader
      ever sees either the complete old file or the complete new one, never
      a prefix.

    A crash at any point leaves at most a [<path>.tmp.<pid>] litter file and
    never a torn [<path>].

    Direct [open_out] on a result file is banned by a CI lint (it greps for
    call sites outside this module). *)

type t
(** An in-progress atomic write: an open channel onto the temporary file. *)

val start : string -> t
(** [start path] opens [<path>.tmp.<pid>] for writing (creating or
    truncating it). The destination [path] is untouched until {!commit}. *)

val channel : t -> out_channel
(** The channel to write content through. Buffered; {!commit} flushes. *)

val commit : t -> unit
(** [commit t] flushes, fsyncs, closes the temporary file, and atomically
    renames it over the destination path. After [commit] the destination
    contains exactly the bytes written, durably. Idempotence is not
    supported: [t] must not be used again. *)

val abort : t -> unit
(** [abort t] closes and deletes the temporary file, leaving the
    destination untouched. Safe to call after a partial write failed. *)

val write : path:string -> (out_channel -> unit) -> unit
(** [write ~path f] is [start]/[f]/[commit], aborting (and re-raising) if
    [f] raises — the one-shot form almost every call site wants. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] atomically replaces [path]'s content with [s]. *)
