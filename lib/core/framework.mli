(** The device-circuit-architecture co-optimization framework: the paper's
    primary contribution, wrapped as a single entry point.

    Given a capacity, a cell device flavor (device level), a voltage-pin
    policy (circuit level: which assist rails exist and at what levels),
    the framework searches the array organization and assist voltages
    (architecture level) for the minimum energy-delay-product design whose
    cell margins meet the yield rule. *)

type config = {
  flavor : Finfet.Library.flavor;
  method_ : Opt.Space.method_;
}

val all_configs : config list
(** The paper's four: LVT/HVT x M1/M2. *)

val config_name : config -> string
(** e.g. "6T-HVT-M2". *)

type optimized = {
  capacity_bits : int;
  config : config;
  result : Opt.Exhaustive.result;
}

val optimize :
  ?space:Opt.Space.t ->
  ?objective:Opt.Objective.t ->
  ?accounting:Array_model.Array_eval.accounting ->
  ?w:int ->
  ?deadline:float ->
  ?strategy:Opt.Strategy.t ->
  ?rng_seed:int ->
  ?budget:int ->
  capacity_bits:int ->
  config:config ->
  unit ->
  optimized
(** One full co-optimization run.  Results are memoized (bounded LRU)
    per (capacity, config, objective, accounting, w, space contents,
    strategy, seed, budget) — the space is keyed by a canonical
    signature of its grids (with [-0.0] / representation noise
    normalized away), so repeated CLI / serving requests for the same
    design are cache hits whether or not the space was passed
    explicitly.  [strategy] (default {!Opt.Strategy.Exhaustive})
    selects the search engine via {!Opt.Strategy.run}; [rng_seed]
    (default {!Opt.Strategy.default_seed}) and [budget] (scan points,
    positive: [Invalid_argument] otherwise; absent means the engine's
    default) feed the stochastic engines and are normalized out of the
    cache key for the deterministic ones.  The search runs on the
    process-wide pool ({!Runtime.Pool.default}), deterministically at
    any job count.  [deadline]
    (absolute {!Obs.Clock.now} seconds, the serving layer's
    per-request budget) aborts a cache-missing search with
    {!Opt.Exhaustive.Deadline_exceeded}; nothing partial is cached, and
    a memo or disk hit is returned regardless of the deadline. *)

type explanation = {
  optimized : optimized;
  attribution : Array_model.Array_eval.attribution;
  sensitivity : Opt.Explain.axis list;
  pareto : Opt.Explain.provenance option;
}

val explain :
  ?space:Opt.Space.t ->
  ?objective:Opt.Objective.t ->
  ?accounting:Array_model.Array_eval.accounting ->
  ?w:int ->
  ?deadline:float ->
  ?strategy:Opt.Strategy.t ->
  ?rng_seed:int ->
  ?pareto:bool ->
  capacity_bits:int ->
  config:config ->
  unit ->
  (explanation, string) result
(** Why the winner wins: {!optimize} with the same arguments, then the
    winner's attribution against the environment the search priced.
    One check guards the numbers: the totals the attribution terms fold
    into must equal the search winner's metrics on all 12 fields, bit
    for bit, or the result is [Error].
    Then the per-axis sensitivity ({!Opt.Explain.sensitivity} over
    [space] and [objective]) and, with [pareto] (default false), the
    keep-all delay-energy front ({!Opt.Explain.pareto} at the search's
    pins).  Raises as {!optimize} does. *)

val paper_capacities : int list
(** 128B, 256B, 1KB, 4KB, 16KB — in bits. *)

val stage_ctx_for :
  flavor:Finfet.Library.flavor ->
  accounting:Array_model.Array_eval.accounting ->
  Array_model.Array_eval.ctx
(** [Array_eval.ctx_for] of the memoized environment for this
    (flavor, accounting): the one {!optimize} searches against, with
    the process-wide staging store. *)

val sweep_capacities :
  capacities:int list ->
  configs:config list ->
  unit ->
  optimized list
(** Cross product of {!optimize} at its defaults, memoized. *)

type headline = {
  avg_edp_reduction : float;
      (** mean (1 - EDP_hvt_m2 / EDP_lvt_m2) over capacities >= 1KB *)
  avg_delay_penalty : float;
      (** mean (D_hvt_m2 / D_lvt_m2 - 1) over the same capacities *)
  max_delay_penalty : float;
  per_capacity : (int * float * float) list;
      (** capacity_bits, edp reduction, delay penalty *)
}

val headline :
  ?capacities:int list ->
  ?space:Opt.Space.t ->
  ?accounting:Array_model.Array_eval.accounting ->
  unit ->
  headline
(** The paper's abstract numbers: HVT-M2 vs LVT-M2 over 1KB..16KB
    (its claim: 59%% lower EDP, max 12%% / avg 9%% delay penalty). *)

val metrics : optimized -> Array_model.Array_eval.metrics
val geometry : optimized -> Array_model.Geometry.t
val assist : optimized -> Array_model.Components.assist
