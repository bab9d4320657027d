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
    ?x0:float array -> ?at_time:float -> Spice.Netlist.t -> Spice.Dc.solution
  (** List-walking MNA assembly, rebuilt on every Newton iteration, with
      the same source stepping as {!Spice.Dc.operating_point}. *)

  val operating_point_companioned :
    ?x0:float array -> at_time:float -> companions:Spice.Dc.companion array ->
    Spice.Netlist.t -> Spice.Dc.solution

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
end

module Periphery : sig
  val write_delay_table : cell_flavor:Finfet.Library.flavor -> Numerics.Interp.Table1d.t
  (** The write-delay LUT with every grid level simulated up front. *)
end
