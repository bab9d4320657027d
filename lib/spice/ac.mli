(** Small-signal (AC) frequency-domain analysis.

    The netlist is linearized at its DC operating point: resistors and
    transistor transconductances populate the G matrix (via
    {!Dc.small_signal_conductance}), capacitors the C matrix, and the
    complex system (G + j omega C) x = b is solved per frequency as the
    equivalent 2n real system — reusing the sparse LU.

    The stimulus is one voltage source driven with a unit AC amplitude;
    every other source is AC-grounded (its DC level only sets the
    operating point), exactly SPICE's `.AC` semantics. *)

type point = {
  frequency : float;   (** Hz *)
  magnitude : float;   (** |V(output)| per unit stimulus *)
  phase : float;       (** radians, in (-pi, pi] *)
}

val at_frequency :
  Netlist.t -> source_index:int -> output:Netlist.node -> frequency:float ->
  point
(** One solve.  [source_index] counts voltage sources in insertion order.
    @raise Invalid_argument on a bad source index or output node. *)

val sweep :
  Netlist.t ->
  source_index:int ->
  output:Netlist.node ->
  f_start:float ->
  f_stop:float ->
  point list
(** Logarithmic sweep at 10 points per decade, endpoints included. *)
