(** The four-stage superbuffer driving word lines and column selects.

    The paper: "each output of row decoder is connected to a driver ...
    derived analytically and verified by SPICE ... To avoid large area
    overheads, four inverter stages are used", and the Table 1/2
    coefficients reveal a 27-fin final stage (the factor 27 in C_WL and
    I_WL).  We reproduce that design: geometric fin scaling 1-3-9-27 by
    default, with a designer that re-sizes (integer fins, max 4 stages)
    for arbitrary loads. *)

type t = {
  stage_fins : int list;   (** fin count per stage, input to output *)
  nfet : Finfet.Device.params;
  pfet : Finfet.Device.params;
}

val wl_driver_fins : int
(** Final-stage fin count of the paper's WL driver: 27. *)

val rail_driver_fins : int
(** Fin count of the CVDD / CVSS rail mux drivers: 20 (paper: "set to 20,
    obtained for n_c = 1024"). *)

val default_wl_driver :
  nfet:Finfet.Device.params -> pfet:Finfet.Device.params -> t
(** Stages 1-3-9-27. *)

val design :
  nfet:Finfet.Device.params -> pfet:Finfet.Device.params ->
  c_load:float -> t
(** Size a driver for [c_load]: pick the fin counts (integer, capped at 4
    stages) that minimize the logical-effort delay — the width-quantized
    version of equal-stage-effort sizing. *)

val delay : t -> c_load:float -> float
(** Total propagation delay of the whole driver into [c_load]. *)

val quantization_penalty :
  nfet:Finfet.Device.params -> pfet:Finfet.Device.params ->
  c_load:float -> float
(** delay(quantized) / delay(continuous) - 1, >= 0 up to rounding noise. *)

val first_stages_delay : t -> float
(** Propagation delay of all stages except the last (the paper's
    D_row_drv / D_col_drv: the final stage's contribution is accounted
    separately as the interconnect delay of Table 2). *)

val first_stages_energy : t -> vdd:float -> float
(** One-transition switching energy of those stages. *)

val input_cap : t -> float
(** Load presented to the decoder output. *)
