(** Coordinate-descent local search over the co-optimization space.

    Deterministic restarts of {!Line_cache.descend} from a fixed
    low-discrepancy spread of starting geometries.  Each descent move
    prices whole rows of V_SSC lines through the batched scan kernel,
    so the V_SSC axis is minimized exactly and a handful of restarts
    reaches the exhaustive optimum from a few percent of its scan
    points — and unlike annealing the run is a fixed, explainable
    procedure. *)

val search :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?w:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** Same result shape as {!Exhaustive.search}; four descents from
    deterministic starting points, sharing one
    {!Line_cache} (which applies [deadline] and journals
    incumbents as ["local_search"]).
    [result.evaluated = result.considered] counts every scan point
    produced.  Bit-identical at any [--jobs].
    @raise Exhaustive.Deadline_exceeded once [deadline] has passed. *)
