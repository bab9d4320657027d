(** Sense-amplifier input offset under device mismatch — the analysis
    behind the choice of the sensing swing Delta V_S.

    The paper fixes Delta V_S = 120 mV and notes that shrinking it "is
    difficult to do especially in advanced technology nodes with increased
    effect of process variations".  This module quantifies that: the
    latch's input-referred offset is the difference between its two
    inverters' switching thresholds under per-device Vt mismatch; the
    bitline must develop k sigma of that offset (plus margin) before the
    sense enable fires. *)

val trip_point :
  nfet:Finfet.Device.params -> pfet:Finfet.Device.params -> float
(** Switching threshold of an inverter: the input voltage at which
    output = input (DC solve + root find). *)

type offset_summary = {
  samples : float array;   (** input-referred offsets, V *)
  sigma : float;
  mean : float;            (** ~0 for unbiased mismatch *)
  required_swing : float;  (** k sigma + margin *)
}

val analyze :
  ?n:int ->
  nfet:Finfet.Device.params ->
  pfet:Finfet.Device.params ->
  unit ->
  offset_summary
(** Monte Carlo over the latch's four devices at the technology's
    sigma-Vt, [n] samples (default 200) drawn from seed 23, with k = 5
    and a 20 mV residual margin.  The resulting [required_swing] is
    directly comparable to the paper's 120 mV. *)
