(** Assist-voltage sweeps: the data behind Figures 3(b)-(d) and 5(a)-(b).

    Read sweeps report the read SNM and the bitline delay of a reference
    64-cell column; write sweeps report the write margin and the
    cell-level write delay.  Crossing extraction locates the marker points
    the paper prints (minimum voltage meeting the yield requirement;
    voltage at which the assisted HVT column matches the unassisted LVT
    one). *)

type read_point = {
  voltage : float;
  rsnm : float;
  read_current : float;
  bl_delay : float;
}

val reference_column : Array_model.Geometry.t
(** The 64-row column the paper assumes for Figure 3's bitline delays. *)

val bl_delay_of_current : flavor:Finfet.Library.flavor -> float -> float
(** C_BL * Delta V_S / I for the reference column. *)

val read_sweep :
  flavor:Finfet.Library.flavor ->
  technique:Technique.read_assist ->
  voltages:float array ->
  unit ->
  read_point array
(** One point per assist voltage, on the {!reference_column}. *)

type write_point = {
  voltage : float;
  wm : float;
  cell_write_delay : float;
}

val write_sweep :
  flavor:Finfet.Library.flavor ->
  technique:Technique.write_assist ->
  voltages:float array ->
  unit ->
  write_point array

val crossing_voltage :
  points:(float * float) array -> threshold:float -> float option
(** Given (voltage, metric) samples ordered along the sweep, the
    interpolated voltage at which the metric first crosses [threshold]
    (in either direction). *)
