(** 7nm FinFET technology constants.

    Values are the ones stated in the paper's Section 5: nominal supply
    450 mV, metal pitch 43 nm (scaled from Intel 14nm/22nm ratios), wire
    capacitance 0.17 fF/um (ITRS 2012, 7nm node).  Layout-derived cell
    dimensions follow Figure 1(b): the 6T cell spans 5 metal pitches in
    width, and its height is 0.4x its width. *)

val vdd_nominal : float
(** Nominal supply voltage, 450 mV. *)

val c_wire_per_m : float
(** Wire capacitance per meter: 0.17 fF/um = 1.7e-10 F/m. *)

val r_wire_per_m : float
(** Wire resistance per meter of the local (Mx) metal used for bitlines:
    ~100 Ohm/um at the 7nm node.  The paper's analytical model neglects
    wire resistance; this constant exists so the column-level transient
    validation ({!Sram_cell.Column}) can quantify that approximation. *)

val cell_width : float
(** 6T cell width = 5 metal pitches (meters). *)

val cell_height : float
(** 6T cell height = 0.4 x [cell_width] (meters). *)

val c_width : float
(** Wire capacitance across one cell width: [cell_width] x [c_wire_per_m]. *)

val c_height : float
(** Wire capacitance across one cell height: 0.4 x [c_width]. *)

val min_margin_fraction : float
(** Yield rule from the paper's Monte Carlo study: noise margins must
    exceed 35% of Vdd. *)

val min_margin : float
(** [min_margin_fraction * vdd_nominal] = 157.5 mV (the paper's delta). *)

val delta_v_sense : float
(** Sense-amplifier input swing Delta V_S = 120 mV. *)
