(** Least-squares model fitting.

    Used for the device-model calibration step: the paper fits
    I_read = b (V - V_t)^a to SPICE data; we perform the same fit against
    our circuit-simulated samples to verify the device model round-trips. *)

type linear_fit = { slope : float; intercept : float; r_squared : float }

val linear : xs:float array -> ys:float array -> linear_fit
(** Ordinary least squares y = slope * x + intercept. Requires >= 2 points. *)

type power_law_fit = { a : float; b : float; vt : float; rms_error : float }
(** Model I = b * (V - vt)^a, the paper's read-current form. *)

val power_law :
  ?vt_lo:float -> ?vt_hi:float -> float array -> float array -> power_law_fit
(** [power_law vs currents] fits by log-linear regression of
    ln I = ln b + a ln(V - vt), with a
    golden-section outer search over [vt] in [vt_lo, vt_hi] (defaults
    0 .. min(vs) - 1mV).  All currents must be positive and all [vs] must
    exceed the candidate [vt]. *)
