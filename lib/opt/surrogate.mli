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
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
  ?pool:Runtime.Pool.t ->
  ?w:int ->
  ?init:int ->
  ?iterations:int ->
  ?budget:int ->
  ?seed:int ->
  ?fallback_threshold:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result * Exhaustive.candidate list
(** The common result shape plus the Pareto front over every scanned
    point (on the fallback path: the true front).  [init] (default 16)
    initial lines — half low-discrepancy, half seeded-uniform;
    [iterations] (default 48) acquisition steps at most; [budget] caps
    scan points (default [max ((init + iterations + 8) * nv) (2% of
    the space)]), sampling stops at 60% of it and the rest feeds the
    polish.  [levels], [pool] and [deadline] (raising
    {!Exhaustive.Deadline_exceeded}) are applied by the shared
    {!Line_cache}, which also journals incumbents as ["surrogate"]; the
    fallback passes [deadline] to the exhaustive engine. *)

val search :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
  ?pool:Runtime.Pool.t ->
  ?w:int ->
  ?init:int ->
  ?iterations:int ->
  ?budget:int ->
  ?seed:int ->
  ?fallback_threshold:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** {!search_front} without materializing the front. *)
