(** Multi-objective primitives over raw objective vectors (minimization).

    The NSGA-II selection machinery, factored out SRAM-free so the
    property tests can drive it with arbitrary random point sets.  All
    functions treat [points.(i)] as one candidate's objective vector;
    every vector in a call must have the same dimension. *)

val fast_nondominated_sort : float array array -> int array
(** Deb's fast non-dominated sort.  Returns [rank] with [rank.(i) = 0]
    for the non-dominated front, [1] for the front once it is removed,
    and so on.  A point dominates another when it is no worse in every
    objective and better in one; then its rank is lower (property-tested). *)

val crowding_distance : float array array -> int array -> float array
(** [crowding_distance points members]: crowding distance of each
    member of one front, aligned with [members] (indices into
    [points]).  Canonical distinct-value formulation: a point on any
    objective's minimum or maximum gets [infinity]; interior points sum
    the normalized gap between the neighboring {e distinct} values per
    objective, so the result is permutation-invariant even with
    duplicate points (property-tested). *)
