(** Simulated annealing over the discrete co-optimization space.

    An ablation partner for {!Exhaustive}: the paper argues exhaustive
    search suffices (four small ranges, minutes on a server); annealing
    demonstrates what a heuristic buys — orders of magnitude fewer
    evaluations at a small optimality risk — which matters if the space is
    extended (e.g. per-bank voltages).  Moves are scored through
    {!Line_cache}, so every visited geometry prices its whole V_SSC line
    and the answer is the best point on any visited line.  Deterministic
    given the seed, at any [--jobs]. *)

type schedule = {
  initial_temperature : float;  (** in units of relative score (0.1 = 10%) *)
  cooling : float;              (** geometric factor per step, < 1 *)
  steps : int;
}

val search :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?w:int ->
  ?deadline:float ->
  ?schedule:schedule ->
  seed:int ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** Same result shape as {!Exhaustive.search}; [evaluated] (=
    [considered]) counts the scan points of every line visited — the
    cost being traded against quality.  [deadline] is applied by the
    shared {!Line_cache}, which also journals incumbents as
    ["anneal"].
    @raise Exhaustive.Deadline_exceeded once [deadline] has passed. *)
