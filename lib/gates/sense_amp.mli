(** Latch-type sense amplifier.

    A standard cross-coupled inverter pair that regenerates a
    [delta_v] differential input to full rails once enabled.  The
    regeneration is exponential with time constant C / g_m, so the delay
    is (C/gm) ln(Vdd / (2 delta_v)); the energy is the charge to swing the
    internal nodes plus the enable line.  The analytic model is validated
    against a {!Spice} transient of the latch in the test suite. *)

type t = {
  nfet : Finfet.Device.params;
  pfet : Finfet.Device.params;
  nfin : int;          (** fin count of each latch device (default 2) *)
}

val default : nfet:Finfet.Device.params -> pfet:Finfet.Device.params -> t

val node_cap : t -> float
(** Capacitance of one internal latch node. *)

val gm : t -> float
(** Small-signal transconductance of one latch inverter at the metastable
    point (finite difference of the drain current around Vdd/2). *)

val delay : t -> delta_v:float -> float
(** Regeneration delay from a [delta_v] initial split to 90%% of full
    swing. *)

val energy : t -> vdd:float -> float
(** One-evaluation switching energy. *)
