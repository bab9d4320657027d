(** Monte-Carlo (mu - k sigma) yield-constrained voltage pinning — the
    "accurate way to analytically express the constraint" that the paper
    states (Section 4) and then sets aside for the simplified threshold
    rule.  This module implements it, so the two constraint formulations
    can be compared end to end (bench `ablation`).

    The constraint is min over {HSNM, RSNM, WM} of (mu - k sigma) >= 0,
    with the margins sampled over per-transistor threshold-voltage
    variation. *)

type config = {
  k : float;          (** sigma multiplier, 1..6 (paper's range) *)
  samples : int;      (** Monte Carlo draws per constraint evaluation *)
  sigma_vt : float;   (** per-device Vt standard deviation *)
  seed : int;         (** base RNG seed (deterministic pipeline) *)
  points : int;       (** butterfly resolution per sample *)
}

val default_config : config
(** k = 3, 25 samples, sigma_vt = 20 mV, seed 7, 31-point butterflies. *)

val worst_margin :
  ?config:config ->
  flavor:Finfet.Library.flavor ->
  vddc:float -> vssc:float -> vwl:float ->
  unit ->
  float
(** min over the three margins of (mu - k sigma) at the given assist
    levels (memoized per argument tuple). *)

type levels = {
  vddc_min : float;
  vwl_min : float;
  achieved_margin : float;  (** worst (mu - k sigma) at the solved pins *)
}

val solve :
  ?config:config ->
  flavor:Finfet.Library.flavor ->
  unit ->
  levels
(** Minimum V_DDC and V_WL (snapped up to the 10 mV grid) such that the
    k-sigma constraint holds at V_SSC = 0.  V_DDC is driven by the RSNM
    distribution and V_WL by the WM distribution; both searches exploit
    the monotonicity of the respective mean margins in their voltage. *)
