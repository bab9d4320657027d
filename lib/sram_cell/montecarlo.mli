(** Monte Carlo yield analysis over process variation.

    The paper derives its 35%%-of-Vdd margin rule from a Monte Carlo study
    and mentions the accurate constraint form
    min((mu - k sigma) over HSNM, RSNM, WM) >= 0.  This module implements
    that analysis so the k-sigma constraint can be used as an alternative
    to the simplified threshold (an ablation called out in DESIGN.md). *)

type margin_samples = {
  hsnm : float array;
  rsnm : float array;
  wm : float array;
}

val sample_margins :
  ?sigma_vt:float ->
  ?points:int ->
  seed:int ->
  n:int ->
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  read_condition:Sram6t.condition ->
  write_condition:Sram6t.condition ->
  unit ->
  margin_samples
(** Draw [n] varied cells and measure all three margins of each.  HSNM is
    measured at [read_condition.vdd] with no assists.  [points] controls
    butterfly resolution (default 41 — coarser than single-shot analyses,
    since MC cost is n x 2 curves). *)

type yield_summary = {
  mu_hsnm : float;
  sigma_hsnm : float;
  mu_rsnm : float;
  sigma_rsnm : float;
  mu_wm : float;
  sigma_wm : float;
  worst_mu_minus_k_sigma : float;
}

val summarize : k:float -> margin_samples -> yield_summary

val passes_k_sigma : k:float -> margin_samples -> bool
(** The paper's accurate constraint:
    min over margins of (mu - k sigma) >= 0. *)
