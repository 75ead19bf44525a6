(** Plain-text rendering of benchmark series: one table per paper
    figure (x values down the rows, one column per series), plus CSV for
    machine consumption. *)

type series = { label : string; points : (float * float) list }

val print_table :
  title:string -> x_label:string -> y_label:string -> series list -> unit

val print_csv : title:string -> series list -> unit

val write_json :
  path:string ->
  title:string ->
  ?meta:(string * string) list ->
  series list ->
  unit
(** Machine-readable rendering written to [path] (overwriting):
    [{"title", "meta": {...}, "series": [{"label", "points": [[x, y]]}]}].
    [meta] carries run parameters (iters, runs, …) as string pairs. *)
