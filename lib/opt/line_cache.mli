(** Scan-line evaluation cache: the one evaluator under every heuristic
    engine ({!Local_search}, {!Anneal}, {!Nsga2}, {!Surrogate}).

    Pricing one geometry prices its whole V_SSC line through the
    batched scan kernel ({!Array_model.Array_eval.scan}); this cache
    performs each distinct (n_r, N_pre, N_wr) scan exactly once,
    fills missing lines in parallel ({!Runtime.Pool.parmap},
    index-ordered), and counts every produced scan point in
    [evaluated] — the same unit as the exhaustive oracle's
    [considered], so budget comparisons are honest.

    It also enforces the {!Strategy} contract for those engines:
    injected [levels] apply to every scan, [deadline] is
    checked once per {!ensure}, and with {!Obs.Search} armed every
    strict improvement of the global incumbent is journaled under the
    engine's [name].

    Everything observable (scores, points, incumbents, fronts) is a
    pure function of the request sequence: bit-identical at any
    [--jobs]. *)

type key = {
  nr_i : int;     (** index into the capacity-filtered n_r values *)
  n_pre_i : int;
  n_wr_i : int;
}

type t

val create :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
  ?w:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  name:string ->
  unit ->
  t
(** An empty cache over the method's effective space (V_SSC collapses
    to [{0}] under M1; n_r filtered to the capacity's valid rows).
    [levels] defaults to {!Yield.solve}; [deadline] is absolute
    {!Obs.Clock.now} seconds.  [name] is the engine's
    {!Obs.Search} journal source and names the telemetry counter
    ["<name>.search"] charged per scan point.
    @raise Invalid_argument on a non-power-of-two capacity or an empty
    geometry space. *)

val nv : t -> int
(** Points per line (V_SSC values). *)

val n_nr : t -> int
val n_pre : t -> int
val n_wr : t -> int

val evaluated : t -> int
(** Scan points produced so far. *)

val ensure : t -> key list -> unit
(** Scan every not-yet-cached key (missing lines run on the
    process-wide pool, {!Runtime.Pool.default};
    incumbent updates fold in request order — deterministic).
    @raise Exhaustive.Deadline_exceeded if the deadline has passed
    (checked once per call, before scanning). *)

val score : t -> key -> int -> float
(** Scalar objective at (geometry, vssc index); scans the line on a
    cache miss (through {!ensure}).  Bit-identical to [Objective.eval]
    of the completed metrics. *)

val point : t -> key -> int -> float * float
(** (d_array, e_total) at (geometry, vssc index). *)

val line_best : t -> key -> int * float
(** The line's scalar-best (vssc index, score). *)

val best : t -> (key * int * float) option
(** Global incumbent over every scanned line: strictly-better score
    wins, ties keep the earlier scan. *)

val descend : t -> key -> key
(** Coordinate descent on g(geometry) = line minimum, cycling
    n_r / N_pre / N_wr with whole-row batch scans until a full cycle
    stops improving; ties keep the incumbent.  A stalled cycle probes
    joint +-1/+-2 steps on every axis pair (pattern search) before
    giving up — the escape move for the coupled (N_pre, N_wr) minima an
    axis-aligned descent sticks on.  The repo's one coordinate descent:
    {!Local_search} restarts it, {!Nsga2} and {!Surrogate} polish with
    it after sampling. *)

val descend_edges : t -> key -> key * key
(** Two extra coordinate descents from [start], one on the line-minimum
    of pure delay and one of pure energy, returning the (min-delay,
    min-energy) endpoints reached.  Pulls the front's extreme designs —
    which the scalar polish has no reason to visit — into the cache;
    the step that lifts {!front}'s hypervolume to the bench gate. *)

val front : t -> Exhaustive.candidate list
(** Pareto front (increasing delay) over every scanned point. *)

val result : t -> Exhaustive.result
(** The incumbent packaged in the common result shape
    ([considered = evaluated]: a heuristic decides exactly what it
    scans).
    @raise Invalid_argument if nothing has been evaluated. *)
