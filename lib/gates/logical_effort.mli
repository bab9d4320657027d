(** Logical-effort delay/energy model for static CMOS gates.

    The paper characterizes its peripheral circuits (decoders, drivers) by
    SPICE and stores the results in look-up tables keyed on the address
    width.  We generate those tables from the method of logical effort,
    which reproduces the log-depth growth that drives the architectural
    trade-off, with the technology time constant computed from the
    calibrated FinFET devices.

    Conventions: stage delay d = tau * (g * h + p) where g is the logical
    effort, h = C_load / C_in the electrical effort, and p the parasitic
    delay (in tau units).  Classical effort values (g_inv = 1,
    g_nandm = (m+2)/3, p_inv = 1, p_nandm = m) are used. *)

type gate = {
  g : float;        (** logical effort *)
  p : float;        (** parasitic delay, tau units *)
  c_in : float;     (** input capacitance per input, F *)
  c_par : float;    (** output parasitic capacitance, F *)
  nfin : int;       (** drive size (fin count of the pull-down) *)
}

val tau : nfet:Finfet.Device.params -> pfet:Finfet.Device.params -> float
(** Technology time constant: worst-case single-fin effective resistance
    (Vdd / I_on, p-limited) times the single-fin inverter input cap. *)

val r_eff : Finfet.Device.params -> float
(** Effective switching resistance of a single fin: 0.5 Vdd / I_on, the
    factor calibrated against transistor-level transients of this device
    model (see the transistor-level oracle test/util/gate_sim.ml and
    test_gates). *)

val inverter :
  nfet:Finfet.Device.params -> pfet:Finfet.Device.params -> nfin:int -> gate

val nand :
  nfet:Finfet.Device.params -> pfet:Finfet.Device.params ->
  inputs:int -> nfin:int -> gate
(** [inputs]-input NAND ([inputs] >= 1; 1 degenerates to an inverter-like
    buffer stage). *)

val stage_delay : tau:float -> gate -> c_load:float -> float
(** Absolute delay (seconds) of one stage driving [c_load]. *)

val stage_energy : gate -> c_load:float -> vdd:float -> float
(** Switching energy of one transition: (C_par + C_load) * Vdd^2. *)

type chain_result = { delay : float; energy : float }

val chain :
  tau:float -> vdd:float ->
  stages:(gate * float) list ->
  chain_result
(** [chain ~stages] where each element is (gate, extra load on its output
    beyond the next stage's input): total delay and one-transition energy
    of the path.  The load of stage i is (extra_i + c_in of stage i+1);
    the last stage's extra load is its full output load. *)
