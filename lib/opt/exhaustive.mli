(** Exhaustive search over the co-optimization space.

    With V_DDC / V_WL pinned by yield, "only four variables with
    relatively small ranges are left, [so] we can derive the minimum
    energy-delay product point ... using an exhaustive search"
    (Section 5).  Every candidate is priced through the analytic array
    model; the search is deterministic.

    Two evaluation kernels are available.  [`Staged] (the default)
    factors each evaluation through {!Array_model.Array_eval.stage_array}
    / [complete] — geometry work once per geometry, assist work once per
    assist — and skips a geometry's whole vssc scan when its admissible
    lower bound ({!Array_model.Array_eval.bound_prepared}) strictly
    exceeds a score already published by another worker.  [`Reference]
    prices every candidate with {!Array_model.Array_eval.evaluate} and
    never prunes.  Both return bit-identical winners; [`Reference]
    exists as the oracle for the kernel benchmark and tests. *)

type candidate = {
  geometry : Array_model.Geometry.t;
  assist : Array_model.Components.assist;
  metrics : Array_model.Array_eval.metrics;
  score : float;
}

type result = {
  best : candidate;
  evaluated : int;
  (** Model evaluations actually performed (telemetry-backed count, not
      the [geometries x vssc_values] product — pruned scans don't
      evaluate). *)
  pruned : int;
  (** Whole vssc scans skipped by the admissible bound.  Timing-dependent
      under parallelism (a worker prunes against whatever has been
      published when it looks); the winner is not. *)
  skipped : int;
  (** Individual scan points abandoned mid-line when a suffix
      envelope's bound exceeded the tightened incumbent.  Like
      [pruned], timing-dependent; [evaluated + skipped + pruned x
      scan-length] always accounts for the whole space. *)
  considered : int;
  (** The full [geometries x vssc_values] product: every point the
      search decided, whether by evaluating it or by covering it with
      an admissible bound.  Deterministic (unlike the three counters
      above), so [considered / wall] is the throughput measure that
      stays comparable across kernels with different pruning power. *)
  levels : Yield.levels;
  pins : Space.pins;
}

type kernel = [ `Staged | `Reference ]

exception Deadline_exceeded
(** Raised by {!search} and {!search_all} (and by every heuristic
    engine, through {!Line_cache}) when the [deadline] passes
    mid-search.  The search leaves no partial state behind (nothing is
    memoized or journaled for the aborted run), so the caller — the
    serving loop — reports a timeout and stays healthy. *)

val search :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
  ?pool:Runtime.Pool.t ->
  ?w:int ->
  ?kernel:kernel ->
  ?stage_ctx:Array_model.Array_eval.ctx ->
  ?journal:Persist.Checkpoint.t ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  result
(** Find the minimum-objective design for the environment's cell flavor.
    [levels] overrides the yield-driven V_DDC / V_WL pins (default: solve
    them with {!Yield.solve}; pass Monte-Carlo-derived pins from
    {!Yield_mc} for the k-sigma constraint formulation).
    [pool] (default {!Runtime.Pool.default}) evaluates geometry chunks
    on worker domains; the index-ordered reduction makes the result —
    winner, tie-breaking and all — bit-identical to the sequential scan
    for any job count.  [kernel] selects the evaluation path (default
    [`Staged]).

    [stage_ctx] shares staged grids across searches: searches whose
    n_r, N_pre and N_wr axes, capacity and [w] agree get the same
    memoized candidate grid, and a context stages a grid once
    ({!Array_model.Array_eval.stage_array}).  Ignored when its
    environment is not (physically) the search's [env]; when absent the
    process-wide registered context for [env] is used, so sharing
    happens by default.

    [journal] (default {!Persist.Checkpoint.default}, i.e. the CLI's
    [--checkpoint] file when set) switches the sweep to fixed chunks of
    [checkpoint_every] geometries, journaling each completed chunk's
    winner.  A resumed journal skips completed chunks and folds their
    stored winners back in; because the chunked reduction is the same
    order-respecting fold as the flat one and candidates round-trip
    through JSON bit-exactly, the resumed winner is bit-identical to an
    uninterrupted run's at any [--jobs] (see DESIGN.md §8).

    [deadline] — absolute {!Obs.Clock.now} seconds — aborts the
    sweep with {!Deadline_exceeded} once passed, checked before every
    geometry scan (one scan is microseconds, so expiry is prompt).
    @raise Invalid_argument if the capacity is not a power of two or no
    geometry candidate exists. *)

val search_all :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
  ?pool:Runtime.Pool.t ->
  ?w:int ->
  ?deadline:float ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  result * candidate list
(** As {!search} but also returns every evaluated candidate (input to
    Pareto-front extraction and ablations).  Never prunes — the full
    candidate list is the contract — so [result.pruned] is 0 and
    [result.evaluated] covers the whole space.  Never journals (the
    full candidate list is too large to checkpoint usefully).  [deadline]
    as in {!search}.  Memory: one record per design point. *)

(** {2 Checksums and codecs}

    Shared by the bench harness, the checkpoint journal and the
    framework disk cache. *)

val checksum : result list -> string
(** FNV-1a 64-bit hex digest over each chosen design's geometry, vssc,
    score and EDP bits.  Excludes [evaluated]/[pruned] (timing-dependent
    under parallelism).  Two sweeps that pick the same designs
    bit-for-bit produce equal checksums. *)

val result_to_json : result -> Persist.Json.t
val result_of_json : Persist.Json.t -> result option
