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

type method_ =
  | Backward_euler
      (** first-order, L-stable: never rings, the robust default *)
  | Trapezoidal
      (** second-order, A-stable: twice the accuracy order at the same
          step, the standard SPICE workhorse *)

val run :
  ?dt:float ->
  ?ic:(Netlist.node * float) list ->
  ?method_:method_ ->
  ?until:(float array -> bool) ->
  t_stop:float ->
  Netlist.t ->
  trace
(** [run ~t_stop netlist] integrates from 0 to [t_stop].

    [dt] is the fixed step (default [t_stop /. 400]); [method_] defaults
    to {!Backward_euler}.
    [ic] pins initial node voltages; all other nodes start from the DC
    operating point at t = 0 computed with sources at their t = 0 values.
    Initial conditions are applied after that solve, so use them for
    storage nodes whose state is not determined by the sources.

    [until] is tested on each step's node-voltage vector (step 0
    included; it must not mutate it): the run stops at, and the trace
    ends with, the first step where it holds.  That trace is the
    bit-identical prefix of the full run; a predicate that never holds
    runs to [t_stop]. *)

val run_adaptive :
  ?dt_min:float ->
  ?dt_max:float ->
  ?dv_max:float ->
  ?ic:(Netlist.node * float) list ->
  ?method_:method_ ->
  t_stop:float ->
  Netlist.t ->
  trace
(** Delta-V-controlled variable stepping: a step whose largest node-voltage
    change exceeds [dv_max] (default 30 mV) is rejected and retried at
    half the step; quiet steps grow by 1.5x up to [dt_max] (default
    t_stop / 20).  [dt_min] (default t_stop / 1e5) bounds refinement.
    Sharp edges get small steps, flat tails get long ones — typically a
    several-fold step-count saving over the fixed-step {!run} at equal
    accuracy (measured in the test suite). *)

val node_trace : trace -> Netlist.node -> float array
(** Voltage-versus-time samples of one node. *)

val crossing_time :
  trace -> node:Netlist.node -> threshold:float ->
  direction:[ `Rising | `Falling ] -> float option
(** Linear-interpolated first crossing, the delay-measurement primitive. *)

val value_at : trace -> node:Netlist.node -> time:float -> float
(** Linear interpolation of a node voltage at an arbitrary time. *)

val source_energy : trace -> Netlist.t -> source_index:int -> float
(** Energy delivered by one voltage source over the whole trace:
    the trapezoidal integral of -V(t) I_branch(t) dt.  Charging a
    capacitance C through any resistance from a fixed source costs C V^2
    (half stored, half dissipated) — the measurement behind the
    switching-energy validation tests. *)

val delivered_energy : trace -> Netlist.t -> float
(** Sum of {!source_energy} over every source. *)
