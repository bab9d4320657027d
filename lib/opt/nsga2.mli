(** NSGA-II over the co-optimization space.

    Non-dominated sorting genetic search on the (d_array, e_total)
    plane, evaluations batched through the scan kernel via
    {!Line_cache} (one line scan per distinct geometry).  Selection is
    the crowded non-dominated comparison ({!Moo}) with deterministic
    tie-breaks; every stochastic draw comes from a per-individual RNG
    stream seeded as [seed + 1021 * (gen * pop + i + 1)], so same-seed
    runs are bit-identical at any [--jobs] (property-tested).  After
    the evolutionary phase the incumbent is polished by coordinate
    descent ({!Line_cache.descend}) — the memetic step that holds
    winner-regret at zero against the exhaustive oracle (the
    [bench moo] gate). *)

val search_front :
  ?space:Space.t ->
  ?levels:Yield.levels ->
  ?pool:Runtime.Pool.t ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result * Exhaustive.candidate list
(** The common result shape plus the Pareto front over every scanned
    point, for the EDP objective at w = 64, seed 42 and no deadline.
    24 individuals per generation, 40 generations at most; the budget
    caps scan points at [max (144 * nv) (2.5% of the space)] — the GA
    phase stops at 60% of it, the rest feeds the descent polish.
    [levels] and [pool] are applied by the shared {!Line_cache}, which
    also journals incumbents as ["nsga2"].
    [result.evaluated = result.considered] counts every scan point
    produced, the same unit as the exhaustive oracle's [considered]. *)

val search :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?pool:Runtime.Pool.t ->
  ?w:int ->
  ?pop:int ->
  ?generations:int ->
  ?budget:int ->
  ?seed:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** {!search_front}'s search at the {!Yield.solve} pins, without
    materializing the front.  [pop] (default 24, >= 4) and [generations]
    (default 40) size the evolutionary phase; [budget] (default as
    above) caps scan points; [deadline] (absolute {!Obs.Clock.now}
    seconds) raises {!Exhaustive.Deadline_exceeded}. *)
