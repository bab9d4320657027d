(** Average driver currents of Table 2.

    Each interconnect transition is priced with D = C dV / I using an
    average current I = coefficient x fins x I_device(bias).  The
    coefficients (0.30, 0.15, 0.25, 0.18, 0.33, 0.50) are the paper's
    SPICE-fitted values, kept verbatim; the device currents come from the
    calibrated LVT periphery devices.  The two assist-blind ON currents
    are evaluated once, by {!create}, so [wl_read], [col_driver],
    [bl_write] and [precharge] are arithmetic on stored values.  *)

type t
(** Current model bound to a periphery device pair and a cell flavor. *)

val create :
  lib:Finfet.Library.t ->
  cell_flavor:Finfet.Library.flavor ->
  read_current_model:
    [ `Simulated | `Paper_fit | `Custom of vddc:float -> vssc:float -> float ] ->
  t

val i_on_pfet : t -> float
(** Single-fin LVT PFET ON current. *)

val i_on_tg : t -> float
(** Transmission-gate ON current per fin pair (n and p in parallel at
    half-swing). *)

val cvdd_driver : t -> vddc:float -> float
(** 0.30 x 20 x I_CVDD(V_DDC). *)

val cvss_driver : t -> vssc:float -> float
(** 0.15 x 20 x I_CVSS(V_SSC). *)

val wl_read : t -> float
(** 0.25 x 27 x I_ON,PFET. *)

val wl_write : t -> vwl:float -> float
(** 0.18 x 27 x I_WL(V_WL). *)

val col_driver : t -> float
(** 0.33 x 27 x I_ON,PFET. *)

val bl_write : t -> n_wr:int -> float
(** 0.50 x N_wr x I_ON,TG. *)

val precharge : t -> n_pre:int -> float
(** 0.50 x N_pre x I_ON,PFET. *)

val read_current : t -> vddc:float -> vssc:float -> float
(** I_read(V_DDC, V_SSC): the simulated access/pull-down stack current of
    the configured cell flavor, the paper's analytic fit, or a custom
    model, per the constructor choice.  Simulated values are cached (the
    optimizer calls this hot). *)
