(** Statistical read timing under local variation.

    The array model prices the bitline with the nominal cell's read
    current, but the sense timing of a real array must cover its slowest
    cell.  This module Monte-Carlo-samples the read stack under
    threshold-voltage mismatch, maps each sample through the Equation (1)
    bitline delay, and reports the guardband a k-sigma-slow cell demands
    — including how the negative-Gnd assist, by raising the overdrive,
    shrinks the *relative* spread. *)

type distribution = {
  samples : float array;   (** sorted ascending *)
  mu : float;
  sigma : float;
}

val read_current_distribution :
  n:int ->
  nfet:Finfet.Device.params ->
  condition:Sram6t.condition ->
  unit ->
  distribution
(** [n] independent (access, pull-down) stack samples at the condition's
    rails, at the technology sigma-Vt, drawn from seed 31. *)

type guardband = {
  nominal_delay : float;     (** BL delay of the nominal cell *)
  mean_delay : float;
  k_sigma_delay : float;     (** delay covering a k-sigma-slow cell *)
  derate : float;            (** k_sigma_delay / nominal_delay *)
}

val bl_delay_guardband :
  ?k:float ->
  cell:Finfet.Variation.cell_sample ->
  column:Column.config ->
  condition:Sram6t.condition ->
  unit ->
  guardband
(** Map the current distribution through C_BL dV / I for the column and
    report the k-sigma (default 3) slow-corner delay, over
    [read_current_distribution ~n:200]. *)
