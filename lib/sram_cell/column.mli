(** Column-level transient validation of the array model's Equation (1).

    The paper prices the bitline discharge as D = C_BL dV / I_read — a
    lumped-capacitance, constant-current approximation.  This module
    builds the real circuit (an accessed 6T cell discharging a bitline
    modelled as a distributed RC ladder, with the off cells' drain
    junctions loading every segment) and measures the sensing delay by
    transient simulation, so the approximation error can be quantified
    (and is, in the test suite and the [validate] bench). *)

type config = {
  nr : int;               (** cells on the bitline *)
  n_pre : int;            (** precharger fins loading the BL *)
  n_wr : int;             (** write-gate fins loading the BL *)
  segments : int;         (** RC-ladder sections (>= 1; 1 = lumped C) *)
  with_wire_resistance : bool;
      (** include the bitline's metal resistance (the paper neglects it) *)
}

val default_config : config
(** 64 cells, 1 precharger fin, 1 write fin, 8 segments, wire R on. *)

val bl_capacitance : cell:Finfet.Variation.cell_sample -> config -> float
(** Total bitline capacitance of the column: per-cell wire + drain
    junctions plus the peripheral loading — the same C_BL the analytic
    model uses (Table 1 with the configured fins, no column mux). *)

val analytic_delay :
  cell:Finfet.Variation.cell_sample -> config -> Sram6t.condition -> float
(** Equation (1): C_BL x Delta V_S / I_read(condition). *)

type result = {
  analytic : float;       (** Equation (1) prediction, s *)
  simulated : float;      (** transient sensing delay, s *)
  relative_error : float; (** (simulated - analytic) / simulated *)
}

val validate :
  cell:Finfet.Variation.cell_sample ->
  config ->
  Sram6t.condition ->
  result
(** Build the column, precharge, assert WL at the condition's level, and
    time the far-end sense node falling by Delta V_S.  The accessed cell
    sits at the far end of the ladder (worst case); the sense node is the
    near end. *)

val analytic_write_delay :
  cell:Finfet.Variation.cell_sample -> config -> float
(** Table 2's BL-write row: C_BL Vdd / (0.5 N_wr I_ON,TG) — the time the
    write buffer needs to pull the precharged bitline to ground through
    its transmission gate. *)

val validate_write :
  cell:Finfet.Variation.cell_sample ->
  config ->
  result
(** Transient counterpart: an N_wr-fin transmission gate (driven on)
    discharging the same RC ladder from Vdd, timed to the far end
    reaching Vdd/2 (the full-swing write condition).  Compares against
    {!analytic_write_delay} — the factor 0.50 in Table 2 is the paper's
    average-current fit, so agreement within tens of percent is the
    expected outcome, not exactness. *)
