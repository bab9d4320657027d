(** Damped Newton-Raphson for small nonlinear systems F(x) = 0.

    This is the kernel of the DC operating-point solver: the residual is the
    vector of KCL node-current sums and the Jacobian is the MNA conductance
    matrix linearized at the current iterate. *)

type result = {
  x : float array;        (** final iterate *)
  converged : bool;       (** residual below tolerance *)
  iterations : int;       (** Newton steps taken *)
  residual : float;       (** final ||F(x)||_inf *)
}

val solve_custom :
  ?tol:float ->
  ?max_iter:int ->
  ?min_iter:int ->
  ?max_step:float ->
  residual:(float array -> float array) ->
  solve_step:(float array -> float array -> float array) ->
  x0:float array ->
  unit ->
  result
(** [solve_custom ~residual ~solve_step ~x0 ()] iterates
    [x <- x + dx] with [dx = solve_step x (-F(x))], i.e.
    [J(x)^-1 (-F(x))] — the DC solver assembles and factors its own
    Jacobian, and [solve_step] owns singularity recovery (e.g. gmin
    regularization).  Each step is:
    - clamped per component to [max_step] (default 0.12, roughly a
      thermal-voltage-scale trust region appropriate for exponential
      device models);
    - backtracked, halving it while the residual norm does not decrease
      (up to 8 halvings).

    [tol] bounds ||F||_inf (default 1e-12, i.e. picoampere-scale KCL
    error); [max_iter] defaults to 200.  [min_iter] (default 0) steps
    at least that often even from an [x0] already within [tol], for a
    caller that reads an unknown the residual barely weighs (a
    picoampere source current).  Not raising on failure is
    deliberate: continuation strategies (source stepping) inspect
    [converged] and retry.

    [residual] runs once per line-search trial, and the last trial's
    value is the next iteration's residual, so:
    - [solve_step x] is always called at the [x] of the latest
      [residual] call (a caller may reuse state from that call);
    - [residual] may return the same buffer every time: its result is
      read before the next call. *)
