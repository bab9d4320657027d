(** Yield-driven assist-voltage selection.

    The paper pins V_DDC and V_WL at the minimum levels meeting the yield
    requirement (margins >= delta = 0.35 Vdd), because raising either only
    costs energy: V_DDC does not appear in the read delay and the cell
    write delay's contribution is negligible.  V_SSC is left free but
    bounded where RSNM starts degrading.  Voltages are snapped up to a
    10 mV grid, matching the paper's reported levels. *)

val voltage_grid : float
(** 10 mV. *)

val snap_up : float -> float
(** Round a voltage up to the next grid point (away from the constraint
    boundary). *)

val vddc_max : float
(** 0.80 V: the top of the V_DDC range the pins are searched over. *)

val cell_of :
  ?corner:Finfet.Corners.corner -> ?celsius:float -> Finfet.Library.flavor ->
  Finfet.Variation.cell_sample
(** The nominal (mismatch-free) 6T cell the pins are solved for: every
    device of the flavor shifted to [corner] (default TT) and derated to
    [celsius] (default 25 C). *)

type levels = {
  vddc_min : float;   (** minimum V_DDC with RSNM(vddc, vssc = 0) >= delta *)
  vwl_min : float;    (** minimum write-WL level with WM >= delta *)
  hsnm_nominal : float;  (** HSNM at nominal Vdd (must already exceed delta) *)
}

val levels_to_json : levels -> Persist.Json.t
val levels_of_json : Persist.Json.t -> levels option
(** The pins' one codec: the [yield.solve] disk records and the
    [levels] of every encoded search result.  Floats round-trip bit for
    bit. *)

val solve :
  ?corner:Finfet.Corners.corner ->
  ?celsius:float ->
  flavor:Finfet.Library.flavor ->
  unit ->
  levels
(** The minimum assist levels meeting the margins: each margin, traced
    on 81-point butterflies, at least [delta], the technology rule
    (157.5 mV).

    V_DDC: RSNM is non-decreasing in V_DDC, so the smallest 10 mV grid
    point in (Vdd, {!vddc_max}] with RSNM >= delta is found by bisecting
    the grid itself (6-7 butterflies; the top point is traced only when
    every midpoint fails), or Vdd when it already passes.
    V_WL: the write flip point ({!Sram_cell.Margins.flips_at_vwl}
    bisected over [0, Vdd + 0.4] to 1 mV) plus [delta], snapped up to the
    grid; the bisection stops as soon as both ends of its bracket give
    the same grid level, which is then the pin.

    [corner] / [celsius] solve the pins for a derated cell instead of the
    nominal one — the corner-aware flow the PVT signoff example motivates:
    a design that must write at the SF corner needs a higher V_WL than the
    nominal-corner optimum, and this is where it comes from.  Defaults:
    TT, 25 C.

    @raise Infeasible when RSNM stays below [delta] up to
    V_DDC = {!vddc_max} (e.g. LVT at TT/125 C, FF or FS at 85 and
    125 C). *)

exception Infeasible of {
  flavor : Finfet.Library.flavor;
  corner : Finfet.Corners.corner;
  celsius : float;
  rsnm : float;  (** RSNM reached at V_DDC = {!vddc_max}, V *)
  delta : float;  (** the margin it had to reach, V *)
}
(** No read-assist level in range makes the cell read-stable at this
    condition.  A printer is registered, so [Printexc.to_string] names
    the condition. *)

val rsnm_at :
  flavor:Finfet.Library.flavor ->
  vddc:float -> vssc:float -> unit -> float
(** Memoized RSNM evaluation (81-point butterfly) used to validate V_SSC
    choices (the paper
    caps the negative-Gnd range at -240 mV where RSNM degrades). *)
