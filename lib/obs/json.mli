(** A minimal JSON value type with a writer and parser, sufficient for the
    trace JSONL format. No external dependency: the trace layer must not pull
    a JSON library into the simulator's core. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. Floats are printed with enough digits to
    round-trip; non-finite floats become [null]. *)

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val of_string_opt : string -> t option
(** [None] on any malformed input (truncated line, bad escape, pathological
    nesting) — never raises. *)

(** {2 Accessors} — all return [None] on a type mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
val to_string_val : t -> string option
val to_bool : t -> bool option
val to_int_list : t -> int list option

(** {2 Decoders} — linear, stopping at the first [Error]. *)

val decode_list : (t -> ('a, 'e) result) -> t list -> ('a list, 'e) result
(** [decode_list f items] decodes every item of a JSON list, in order. *)

val decode_fields :
  (string -> t -> ('a, 'e) result) ->
  (string * t) list ->
  ((string * 'a) list, 'e) result
(** [decode_fields f fields] decodes every value of a JSON object, keeping
    each key and the field order. *)
