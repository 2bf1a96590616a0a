(** ASCII rendering of experiment results in the layout of the paper's
    figures: one column per protocol, one row per degree. *)

val scalar_table :
  title:string ->
  unit_label:string ->
  (string * (int * float) list) list Fmt.t
(** Render a degree-indexed projection (per protocol, [(degree, value)]
    points, as campaign sections project an artifact metric): rows are
    degrees, columns are protocols. *)
