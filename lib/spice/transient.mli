(** Transient analysis by backward Euler over capacitor companion models.

    Each time step is a DC solve with capacitors replaced by a conductance
    C/h plus history term, warm-started from the previous step — the
    classical SPICE integration scheme, unconditionally stable for the
    stiff node equations produced by strong transistors on small caps.
    The netlist is compiled once per run ({!Dc.compile}), not per step. *)

type trace = {
  times : float array;
  voltages : float array array;
      (** [voltages.(k).(node)] — full node-voltage vector at step k. *)
  source_currents : float array array;
      (** [source_currents.(k).(i)] — branch current of the i-th voltage
          source (netlist order) at step k; positive into the + terminal. *)
}

val run :
  ?dt:float ->
  ?ic:(Netlist.node * float) list ->
  ?until:(float array -> bool) ->
  t_stop:float ->
  Netlist.t ->
  trace
(** [run ~t_stop netlist] integrates from 0 to [t_stop].

    [dt] is the fixed step (default [t_stop /. 400]).
    [ic] pins initial node voltages; all other nodes start from the DC
    operating point at t = 0 computed with sources at their t = 0 values.
    Initial conditions are applied after that solve, so use them for
    storage nodes whose state is not determined by the sources.

    [until] is tested on each step's node-voltage vector (step 0
    included; it must not mutate it): the run stops at, and the trace
    ends with, the first step where it holds.  That trace is the
    bit-identical prefix of the full run; a predicate that never holds
    runs to [t_stop]. *)

val node_trace : trace -> Netlist.node -> float array
(** Voltage-versus-time samples of one node. *)

val crossing_time :
  trace -> node:Netlist.node -> threshold:float ->
  direction:[ `Rising | `Falling ] -> float option
(** Linear-interpolated first crossing, the delay-measurement primitive. *)
