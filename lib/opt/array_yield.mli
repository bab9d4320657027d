(** Statistical array yield — what the paper's margin rule is a proxy for.

    The paper constrains min(HSNM, RSNM, WM) >= 0.35 Vdd because its Monte
    Carlo study found that threshold "to achieve a high-yield SRAM cell".
    This module computes the quantity that rule stands in for: the
    probability that an M-bit array (optionally with spare rows for
    repair) is fully functional, from the Gaussian tails of the measured
    margin distributions.

    Model: a cell fails if any margin falls below zero; margins are
    treated as independent Gaussians fitted to the Monte Carlo samples
    (a mild approximation the paper's own mu - k sigma form shares).  A
    row fails if any of its n_c cells fail; with r spare rows the array
    survives up to r failing rows. *)

val cell_failure_probability : Sram_cell.Montecarlo.margin_samples -> float
(** P(any margin < 0) = 1 - prod over margins of Phi(mu / sigma). *)

val array_yield :
  ?spare_rows:int ->
  geometry:Array_model.Geometry.t ->
  cell_fail:float ->
  unit ->
  float
(** Yield of one array: P(#failing rows <= spare_rows) with
    p_row = 1 - (1 - cell_fail)^n_c. *)

type solved = {
  vddc_min : float;         (** minimum boost meeting the yield target *)
  achieved_yield : float;
  cell_fail : float;        (** at the solved level *)
}

val solve_vddc :
  ?spare_rows:int ->
  flavor:Finfet.Library.flavor ->
  geometry:Array_model.Geometry.t ->
  unit ->
  solved
(** Walk V_DDC up the 10 mV grid until the array yield, over
    {!Yield_mc.default_config}'s samples, reaches 0.99.  The write level rides along at the same value (the
    HVT single-pin case).  This is the statistically-grounded alternative
    to both the simplified 35%%-of-Vdd rule and the raw k-sigma form —
    and, unlike them, it depends on the array size, which the bench
    ablation demonstrates. *)
