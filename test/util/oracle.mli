(** Reference implementations of the SPICE-level kernels in their
    original form, kept as bit-exact oracles for the optimized library
    versions. *)

module Lu : sig
  val solve : Numerics.Matrix.t -> float array -> float array
  (** Copying dense LU with partial pivoting, then forward and backward
      substitution.  @raise Numerics.Lu.Singular *)
end

module Newton : sig
  val solve_custom :
    tol:float ->
    max_iter:int ->
    max_step:float ->
    residual:(float array -> float array) ->
    solve_step:(float array -> float array -> float array) ->
    x0:float array ->
    Numerics.Newton.result
  (** Damped Newton that re-evaluates the residual at the top of every
      iteration. *)
end

module Dc : sig
  val operating_point :
    ?x0:float array -> ?at_time:float -> ?direct_iterations:int -> Spice.Netlist.t ->
    Spice.Dc.solution
  (** List-walking MNA assembly, rebuilt on every Newton iteration, with
      the same source stepping as {!Spice.Dc.operating_point}, and the
      same optional cap on the direct attempt (default 150 iterations,
      the limit of every source-stepping step). *)

  val operating_point_companioned :
    ?x0:float array -> ?direct_iterations:int -> at_time:float ->
    companions:Spice.Dc.companion array -> Spice.Netlist.t -> Spice.Dc.solution

  val sweep :
    build:(float -> Spice.Netlist.t) -> points:float array -> Spice.Dc.solution array
  (** One netlist built and solved per point, each warm-started from the
      previous solution. *)
end

module Butterfly : sig
  val lobe :
    upper:Sram_cell.Butterfly.vtc -> lower:Sram_cell.Butterfly.vtc -> float
  (** The largest-square scan with a fresh 64-step bracket search of both
      curves at each of the 159 diagonal offsets. *)

  val snm :
    ?points:int ->
    cell:Finfet.Variation.cell_sample ->
    access_on:bool ->
    Sram_cell.Sram6t.condition ->
    float
  (** Both halves swept with {!Sram_cell.Butterfly.trace_vtc}, whatever
      the cell and condition, then the smaller of both {!lobe}s: the
      read SNM with [access_on], the hold SNM without. *)
end

module Dynamics : sig
  val write_delay :
    ?t_stop:float ->
    ?wl_rise:float ->
    cell:Finfet.Variation.cell_sample ->
    Sram_cell.Sram6t.condition ->
    Sram_cell.Dynamics.write_delay_result
  (** The write-0 transient run over its whole window (600 steps), then
      measured. *)
end

module Periphery : sig
  val write_delay_table : cell_flavor:Finfet.Library.flavor -> Numerics.Interp.Table1d.t
  (** The write-delay LUT with every grid level simulated up front by
      {!Dynamics.write_delay}. *)
end

module Yield : sig
  val margins_ok :
    flavor:Finfet.Library.flavor -> vddc:float -> vssc:float -> vwl:float -> bool
  (** The simplified constraint of Section 4 re-checked from scratch at
      81 points: min(HSNM, RSNM, WM) >= the technology margin for the
      given assist levels, independently of {!Opt.Yield.solve}'s
      bisections. *)
end
