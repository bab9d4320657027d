(** Standby / data-retention analysis.

    The paper's Figure 2 argument — Vdd scaling saves less leakage than
    switching to HVT — naturally extends to the standby question a memory
    designer asks next: how low can the retention rail drop, and what does
    a drowsy-standby mode save?  This module answers both with the same
    butterfly and leakage machinery. *)

type standby_summary = {
  v_retention : float;      (** solved retention supply *)
  v_standby : float;        (** retention + guard band *)
  p_active : float;         (** leakage at nominal Vdd, W/cell *)
  p_standby : float;        (** leakage at the standby rail, W/cell *)
  savings : float;          (** 1 - p_standby / p_active *)
}

val standby :
  cell:Finfet.Variation.cell_sample ->
  unit ->
  standby_summary
(** Drowsy-mode summary with a 50 mV guard band above the retention
    voltage: the minimum supply at which the hold SNM (41-point
    butterfly) still exceeds the technology rule's fraction (0.35) of Vdd, bisected to
    2 mV over the monotone HSNM/Vdd-fraction curve.  The retention
    voltage is the technology nominal if even that fails (degenerate
    cells under heavy variation). *)
