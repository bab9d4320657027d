(** Terminal line charts for the figure reproductions.

    The paper's evaluation is mostly figures; rendering the regenerated
    series as ASCII charts makes the bench output directly comparable to
    them without leaving the terminal.  Deterministic (pure string
    rendering), so it is testable. *)

type series = {
  label : string;
  marker : char;
  points : (float * float) list;  (** (x, y), any order; sorted internally *)
}

val render :
  ?log_y:bool ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  string
(** A 64 x 16 character canvas with left/
    bottom axes, min/max tick annotations, one marker character per
    series, and a legend.  [log_y] plots log10 of the values (all y must
    be positive then).  Overlapping points keep the later series' marker.
    @raise Invalid_argument on an empty series list, empty series, or
    non-positive values under [log_y]. *)

val print :
  ?log_y:bool ->
  ?x_label:string ->
  ?y_label:string ->
  series list ->
  unit
