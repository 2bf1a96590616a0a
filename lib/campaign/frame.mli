(** CRC-tagged record lines, shared by {!Cache} entry files and the
    {!Proc_backend} wire protocol, so a torn write or a flipped bit in
    either is detected the same way. A record is one line,
    [{"crc":"xxxxxxxx","entry":<entry>}], where [xxxxxxxx] is the
    lowercase-hex CRC-32 (IEEE reflected, as in gzip) of the {e literal
    bytes} of [<entry>] as written: verification needs no canonical
    re-serialization. *)

val crc32 : string -> int
(** The CRC-32 of the record format, exposed for tests. *)

val frame : string -> string
(** [frame entry] is one record line (newline included) carrying the
    literal bytes of [entry]. *)

val unframe : string -> (Obs.Json.t, string) result
(** [unframe line] verifies the CRC of one {!frame}d line (trailing newline
    already stripped) and parses the entry. *)
