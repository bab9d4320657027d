(** Why the winner wins: per-axis sensitivity and Pareto provenance.

    The paper's evidence is explanations — breakdowns, trade-off
    curves, sensitivity of EDP to each design axis — not a single
    optimal point.  This module derives those explanations around an
    already-found winner: {!sensitivity} probes the objective one grid
    step along each search axis (finite differences on the same
    [Array_eval.evaluate] the search used, so the numbers are the
    search's own), and {!pareto} re-enumerates the space with the
    record-keeping kernel to report the delay-energy front the winner
    sits on, with provenance (which search produced it, how many
    candidates it dominates). *)

type neighbor = {
  nb_value : float;  (** the neighbor's coordinate (fins, rows, volts) *)
  nb_score : float;  (** objective there *)
  nb_delta : float;  (** (nb_score - winner) / winner *)
}

type axis = {
  ax_name : string;  (** ["n_r"], ["N_pre"], ["N_wr"], ["V_SSC"] *)
  ax_value : float;  (** the winner's coordinate *)
  ax_minus : neighbor option;  (** one grid step down, if valid *)
  ax_plus : neighbor option;   (** one grid step up, if valid *)
}

val sensitivity :
  ?space:Space.t ->
  ?objective:Objective.t ->
  env:Array_model.Array_eval.env ->
  pins:Space.pins ->
  winner:Exhaustive.candidate ->
  unit ->
  axis list
(** One axis per search variable, in the order n_r, N_pre, N_wr,
    V_SSC.  A neighbor is [None] at a grid edge, where the stepped
    geometry is invalid for the capacity, or (for V_SSC under M1) when
    the pin policy forbids the axis.  Evaluations bypass the winner's
    search entirely — a missing neighbor can never change the winner. *)

type provenance = {
  pv_source : string;      (** which search produced the candidates *)
  pv_evaluated : int;      (** candidates materialized *)
  pv_front : Exhaustive.candidate list;  (** by increasing delay *)
  pv_dominated : int;      (** evaluated - |front| *)
  pv_knee : Exhaustive.candidate option;
}

val pareto :
  ?levels:Yield.levels ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  provenance
(** Full enumeration of {!Space.default} for the EDP objective at
    [w = 64] via [Exhaustive.search_all] (the keep-all kernel never
    prunes, so the front is over every candidate in the space), reduced
    by [Pareto.front]/[Pareto.knee]. *)

val energy_rollup :
  Array_model.Array_eval.attribution -> (string * float) list
(** Each attribution term weighted by its share of Equation (5)'s
    E_total — read terms by [alpha * beta], write terms by
    [alpha * (1 - beta)], components present in both paths merged, plus
    a final ["leakage"] row — for display as fractions of the total.
    (Display arithmetic: bit-exactness lives in the unweighted lists;
    see [Array_eval.attribute].) *)
