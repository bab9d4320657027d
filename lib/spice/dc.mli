(** DC operating-point analysis (the MNA solve at the heart of every
    butterfly curve, margin extraction and leakage measurement).

    Unknowns are the non-ground node voltages plus one branch current per
    voltage source (modified nodal analysis).  The nonlinear system is
    solved by damped Newton with a voltage-scale trust region; when the
    direct attempt (from [x0], or a flat start) fails to converge within
    its iteration limit, the solver ramps all sources from zero (source
    stepping), warm-starting each step.  Every Newton attempt is limited
    to 150 iterations, except that a caller may cap the direct one lower
    ([?direct_iterations]): source stepping starts from zero whatever
    the direct attempt did, so a cap only decides how long a direct
    attempt that would fail anyway runs first.

    Each solve bumps the {!Runtime.Telemetry} counters [dc.solves],
    [dc.newton_iterations] (all attempts), [dc.direct_failures] (the
    direct attempt did not converge) and [dc.unconverged] (neither did
    source stepping: the returned iterate is no operating point). *)

type solution = {
  voltages : float array;
      (** Indexed by node id, [voltages.(0) = 0] (ground). *)
  source_currents : float array;
      (** One per voltage source, in netlist insertion order; positive
          current flows into the + terminal and through the source. *)
  converged : bool;
      (** False when source stepping's last step did not converge either;
          the voltages are then Newton's last iterate, not an answer. *)
  iterations : int;  (** Total Newton iterations across all ramp steps. *)
}

val gmin : float
(** Conductance tied from every node to ground (1e-12 S) so that floating
    gates are well-posed. *)

val operating_point :
  ?x0:float array -> ?direct_iterations:int -> ?min_iterations:int ->
  Netlist.t -> solution
(** Solve the operating point with sources evaluated at time 0.  [x0]
    warm-starts the Newton iteration (layout: node
    voltages 1..n-1, then source currents).  [direct_iterations]
    (default 150) limits the direct attempt before source stepping.
    [min_iterations] (default 0) makes the direct attempt take at least
    that many Newton steps: an [x0] whose residual is already below the
    1e-12 A tolerance would otherwise come back as the answer, with its
    guessed source currents.
    @raise Invalid_argument if the netlist fails {!Netlist.validate}. *)

val solution_vector : solution -> float array
(** Repack a solution as a warm-start vector for {!operating_point}. *)

val sweep : Netlist.t -> source:int -> points:float array -> solution array
(** [sweep netlist ~source ~points] holds voltage source [source]
    (0-based, netlist order) at each point in turn, overriding its
    waveform, and solves the operating point, warm-starting each solve
    from the previous solution (a SPICE [.DC] sweep).  The netlist is
    compiled once for the whole sweep.  This is the primitive behind VTC
    and butterfly curves.
    @raise Invalid_argument if there is no such source. *)

val node_voltage : solution -> Netlist.node -> float

(** {1 Compiled netlists}

    {!operating_point} lowers the netlist into an element array with
    preallocated residual, Jacobian and LU buffers, then runs Newton on
    it.  A caller that solves the same netlist many times (a transient,
    one solve per step) compiles it once and calls {!solve}.  A compiled
    netlist is mutable scratch: use it from one domain at a time. *)

type compiled

val compile : Netlist.t -> compiled
(** @raise Invalid_argument if the netlist fails {!Netlist.validate}. *)

type companion = { g_eq : float; v_hist : float }
(** Backward-Euler companion model of a capacitor: a conductance
    [g_eq = C/h] in parallel with the history term, so the stamped current
    is [g_eq * (v - v_hist)]. *)

val solve :
  ?x0:float array -> ?at_time:float -> ?companions:companion array ->
  ?direct_iterations:int -> ?min_iterations:int -> compiled -> solution
(** The operating point of a compiled netlist, as {!operating_point},
    with sources evaluated at [at_time] (default 0).  With [companions], every capacitor is replaced by its companion
    model, in netlist insertion order ({!Transient}'s time step);
    without, capacitors are open. *)

val small_signal_conductance : Netlist.t -> solution -> Numerics.Sparse.t
(** The MNA Jacobian linearized at the operating point, capacitors open —
    the G matrix of AC analysis ({!Ac}).  Includes the voltage-source
    constraint rows and the gmin ties. *)
