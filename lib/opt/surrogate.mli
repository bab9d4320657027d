(** Scalarized surrogate search (quadratic model + expected improvement).

    Models log(objective at each geometry's V_SSC-minimum) as a full
    quadratic in the three normalized geometry coordinates, fitted by
    least squares over every scanned line; acquisition is expected
    improvement with a distance-inflated uncertainty, maximized exactly
    over the unscanned grid.  V_SSC never enters the model — the
    batched line scan ({!Line_cache}) minimizes that axis exactly.
    Ends with a coordinate-descent polish from the incumbent.  Below
    [fallback_threshold] design points the exhaustive engine runs
    outright instead (modeling a space that small costs more than
    scanning it).

    Deterministic per seed and bit-identical at any [--jobs] (one RNG
    stream on the calling domain; parallel work is pure line scans). *)

val default_fallback_threshold : int
(** 2048 design points. *)

val search_front :
  ?space:Space.t ->
  ?levels:Yield.levels ->
  ?fallback_threshold:int ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result * Exhaustive.candidate list
(** The common result shape plus the Pareto front over every scanned
    point (on the fallback path: the true front), for the EDP objective
    at w = 64, seed 42 and no deadline.  16 initial lines — half
    low-discrepancy, half seeded-uniform; 48 acquisition steps at most;
    scan points are capped at [max (72 * nv) (2% of the space)],
    sampling stops at 60% of that and the rest feeds the polish.
    [levels] are applied by the shared {!Line_cache}, which also
    journals incumbents as ["surrogate"]. *)

val search :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?w:int ->
  ?budget:int ->
  ?seed:int ->
  ?fallback_threshold:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** {!search_front}'s search at the {!Yield.solve} pins, without
    materializing the front (the fallback still runs the unpruned
    {!Exhaustive.search_all}, so its counts match the front search's).
    [seed] (default 42) seeds the one RNG stream, [budget] (default as
    above) caps scan points, and [deadline] (absolute {!Obs.Clock.now}
    seconds) raises {!Exhaustive.Deadline_exceeded}, through
    {!Line_cache} or the fallback. *)
