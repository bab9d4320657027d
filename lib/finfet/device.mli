(** Compact FinFET I-V and capacitance model.

    A single smooth equation covers subthreshold through strong inversion
    (alpha-power law with an EKV-style soft-plus gate overdrive), with no
    DIBL and no channel-length modulation — matching the paper's
    observation that DIBL is negligible in these FinFETs.  Width
    quantization is explicit: all currents and capacitances scale with an
    integer fin count. *)

type polarity = Nfet | Pfet

type params = {
  name : string;          (** e.g. "nfet_hvt_7nm" *)
  polarity : polarity;
  vt : float;             (** threshold-voltage magnitude, V *)
  alpha : float;          (** velocity-saturation exponent (paper fit: 1.3) *)
  beta : float;           (** transconductance prefactor per fin, A / V^alpha *)
  s_smooth : float;       (** soft-plus smoothing voltage, V; sets the
                              effective subthreshold swing
                              SS = ln 10 * s_smooth / alpha *)
  c_gate : float;         (** gate capacitance per fin, F *)
  c_drain : float;        (** drain (junction) capacitance per fin, F *)
}

val ids : params -> vgs:float -> vds:float -> float
(** Source-referenced drain current per fin for normal operation
    ([vds >= 0], both voltages magnitudes for Pfet).  Monotone in both
    arguments; zero at [vds = 0]. *)

val drain_source_current : params -> nfin:int -> vg:float -> vd:float -> vs:float -> float
(** Terminal-voltage form used by the circuit simulator: conventional
    current flowing from drain terminal to source terminal through the
    channel ([nfin] fins).  Handles source/drain symmetry (reverse
    conduction) and both polarities: a Pfet conducting normally returns a
    negative value (current flows source to drain). *)

val i_on : params -> float
(** ON current per fin at [vgs = vds =] the technology's nominal Vdd. *)

val i_off : params -> float
(** OFF (leakage) current per fin at [vgs = 0] and the nominal [vds]. *)

val with_vt : params -> float -> params
(** Copy with a replaced threshold voltage (Monte Carlo sampling hook). *)
