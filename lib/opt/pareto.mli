(** Delay-energy Pareto front over evaluated candidates.

    The EDP optimum is one point of this front; exposing the whole front
    lets a designer trade a stricter latency budget against energy (and is
    the data behind the framework's extension studies). *)

val objectives : Exhaustive.candidate -> float array
(** The candidate's [| d_array; e_total |] vector — the coordinates
    {!front} and the NSGA-II machinery ({!Moo}) rank by. *)

val front : Exhaustive.candidate list -> Exhaustive.candidate list
(** Non-dominated candidates under (d_array, e_total), sorted by
    increasing delay.  A candidate is dominated if another is no worse in
    both dimensions and better in one. *)

val knee : Exhaustive.candidate list -> Exhaustive.candidate option
(** The front member with the minimum normalized distance to the ideal
    (min-delay, min-energy) corner — a robust "balanced" pick. *)
