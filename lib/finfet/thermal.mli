(** Temperature scaling of the device model.

    The calibration anchors hold at the paper's (implicit) room-temperature
    corner; this module derates a device for operation at another junction
    temperature using the three first-order effects:

    - subthreshold swing grows linearly with absolute temperature
      (SS proportional to kT/q), which inflates OFF currents exponentially;
    - the threshold voltage falls by ~0.7 mV/K;
    - carrier mobility — hence the drive prefactor — falls as
      (T/T0)^-1.5.

    Hot silicon therefore leaks much more while driving slightly less,
    shifting the leakage-versus-switching balance that decides the
    HVT-versus-LVT question. *)

val t_ref_celsius : float
(** Calibration temperature: 25 C. *)

val at_temperature : celsius:float -> Device.params -> Device.params
(** Derated copy of a device.  [celsius] in [-40, 150] (asserts). *)
