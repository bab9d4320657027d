(** Butterfly curves and static-noise-margin extraction (Seevinck's
    largest-embedded-square method, as cited by the paper [12]).

    The butterfly plane has V_Q on the horizontal axis and V_QB on the
    vertical axis.  Curve R is the right inverter's transfer function
    (input Q, output QB); curve L is the left inverter's (input QB,
    output Q, plotted mirrored).  The SNM is the side of the largest
    square that fits inside the smaller of the two eyes. *)

type vtc = {
  inputs : float array;   (** sweep of the inverter input voltage *)
  outputs : float array;  (** solved inverter output voltage *)
}

val trace_vtc :
  ?points:int ->
  cell:Finfet.Variation.cell_sample ->
  side:[ `Left | `Right ] ->
  access_on:bool ->
  Sram6t.condition ->
  vtc
(** Solve the half-cell of {!Sram6t.build_half_vtc} over a sweep of the
    input voltage from the cell-ground to the cell-supply rail
    (default 81 points, warm-started). *)

type butterfly = {
  curve_r : vtc;  (** input V_Q, output V_QB *)
  curve_l : vtc;  (** input V_QB, output V_Q *)
}

val trace :
  ?points:int ->
  cell:Finfet.Variation.cell_sample ->
  access_on:bool ->
  Sram6t.condition ->
  butterfly
(** Both halves' VTCs.  When the two halves carry physically equal
    device records ([==], as {!Finfet.Variation.nominal_cell} builds
    them) and the bitline levels are bit-equal (hold and read), the two
    half-cell netlists are the same, so one sweep serves both and the
    curves are physically equal; otherwise (Monte Carlo samples, write
    conditions) each side is swept. *)

type snm = {
  lobe_high : float;  (** largest square in the upper-left eye, V *)
  lobe_low : float;   (** largest square in the lower-right eye, V *)
}

val snm_of_butterfly : butterfly -> snm
(** Extract both lobes.  A collapsed eye (monostable cell) yields 0.
    When [curve_l == curve_r] the two lobes are one computation, done
    once. *)

val hold_snm :
  ?points:int -> cell:Finfet.Variation.cell_sample -> Sram6t.condition -> float
(** HSNM: butterfly with access transistors off. *)

val read_snm :
  ?points:int -> cell:Finfet.Variation.cell_sample -> Sram6t.condition -> float
(** RSNM: butterfly with wordline on and bitlines clamped (worst-case
    static read). *)
