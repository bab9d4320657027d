(** Lookup tables with interpolation.

    The paper stores SPICE-characterized delay/energy components "with
    dependencies on a variable ... in look-up tables"; these are those
    tables.  1-D tables interpolate linearly and 2-D tables bilinearly;
    both hold the boundary value outside the domain. *)

module Table1d : sig
  type t

  val create : float array -> float array -> t
  (** [create xs ys]: [xs] must be strictly increasing and the arrays of
      equal length >= 2. *)

  val of_fn : lo:float -> hi:float -> n:int -> (float -> float) -> t
  (** Sample a function on [n] equally spaced points (n >= 2). *)

  val eval : t -> float -> float

  val eval_by : float array -> (int -> float) -> float -> float
  (** [eval_by xs y x] is [eval (create xs ys) x] with [ys.(i)] read as
      [y i], and only for the one or two [i] that [x] needs: a clamped
      [x] reads one end, any other [x] the two ends of its segment.  The
      hook for tables whose ordinates are computed on demand. *)

  val domain : t -> float * float

  val xs : t -> float array
  val ys : t -> float array
end

module Table2d : sig
  type t

  val create : xs:float array -> ys:float array -> float array array -> t
  (** [create ~xs ~ys zs]: [zs.(i).(j)] is the value at [(xs.(i), ys.(j))].
      Both axes strictly increasing. *)

  val eval : t -> x:float -> y:float -> float
end

val pchip : xs:float array -> ys:float array -> (float -> float)
(** Monotone cubic (Fritsch-Carlson) interpolant; preserves monotonicity of
    the data — important for I-V tables where overshoot would create
    spurious negative differential conductance. Clamps outside the domain. *)
