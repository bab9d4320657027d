(** Scalar root finding and 1-D minimization.

    These drive the circuit solvers (single-node DC solves), noise-margin
    searches (largest-square extraction) and the yield-constraint voltage
    solves (minimum assist voltage meeting a margin target). *)

exception No_bracket
(** Raised when the supplied interval does not bracket a root. *)

val bisect :
  ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** [bisect f ~lo ~hi] finds [x] with [f x = 0] assuming [f lo] and [f hi]
    have opposite signs.  @raise No_bracket otherwise.
    [tol] is the absolute interval tolerance (default 1e-12); at most
    200 halvings. *)

val brent :
  ?tol:float -> (float -> float) -> lo:float -> hi:float -> float
(** Brent's method: inverse-quadratic interpolation with bisection fallback.
    Same contract as {!bisect} (at most 100 iterations), typically far
    fewer evaluations. *)

val golden_min :
  ?tol:float -> (float -> float) -> lo:float -> hi:float -> float * float
(** [golden_min f ~lo ~hi] minimizes a unimodal [f] on [lo, hi] by
    golden-section search; returns [(argmin, min)]. *)

val find_bracket :
  (float -> float) -> lo:float -> hi:float -> n:int -> (float * float) option
(** Scan [n] equal subintervals of [lo, hi] and return the first that
    brackets a sign change of [f], if any. *)
