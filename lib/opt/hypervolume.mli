(** Exact hypervolume indicators (minimization).

    Hypervolume of a front w.r.t. a reference point [r]: the measure of
    the region dominated by the front and bounded by [r].  The strictly
    Pareto-compliant indicator the oracle tests and [bench moo] gate
    on: an approximate front with >= 99% of the true front's
    hypervolume has not lost a significant trade-off region. *)

val hv2 : ref_:float * float -> (float * float) list -> float
(** Exact 2D hypervolume.  Points at or beyond the reference in either
    coordinate contribute nothing; dominated points are handled
    (they add no area).  O(n log n). *)

val ratio : truth:(float * float) list -> (float * float) list -> float
(** [ratio ~truth approx]: hypervolume of [approx] over hypervolume of
    [truth], both against the nadir (componentwise worst) of [truth]
    pushed out by 10%%.  1.0 means the approximation covers the whole
    true front.
    @raise Invalid_argument on an empty [truth]. *)
