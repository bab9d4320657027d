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
    lower bound ({!Array_model.Array_eval.suffix_bounds}) strictly
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
  (** Individual scan points abandoned mid-line when a suffix bound
      exceeded the tightened incumbent.  Like [pruned],
      timing-dependent; [evaluated + skipped + pruned x scan-length]
      always accounts for the whole space. *)
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
  ?w:int ->
  ?kernel:kernel ->
  ?stage_ctx:Array_model.Array_eval.ctx ->
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
    The process-wide pool ({!Runtime.Pool.default}) evaluates geometry
    blocks on worker domains; the index-ordered reduction makes the
    result — winner, tie-breaking and all — bit-identical to the
    sequential scan for any job count.  [kernel] selects the evaluation
    path (default [`Staged]).

    [stage_ctx] is the staging context (an environment and a store)
    the search stages its grid through.  Searches whose n_r, N_pre and
    N_wr axes, capacity and [w] (64 when absent) agree get the same
    memoized candidate grid, and a store stages a grid once per device
    set ({!Array_model.Array_eval.stage_array}).  Ignored when its
    environment is not (physically) the search's [env]; when absent,
    [Array_eval.ctx_for env] (the process-wide store), so sharing
    happens by default, across both accountings of a flavor too.

    The sweep runs in blocks of consecutive geometries, folded in
    order.  The process-wide journal ({!Persist.Checkpoint.default},
    the CLI's [--checkpoint] file), when one is set, makes its chunks
    of [checkpoint_every] geometries the blocks (64 without one) and
    records each computed chunk's winner; a resumed journal replays a
    recorded chunk's winner instead of scanning it.  Candidates
    round-trip through JSON bit-exactly, so the resumed winner is
    bit-identical to an uninterrupted run's at any [--jobs] (DESIGN.md
    §8).

    [deadline] — absolute {!Obs.Clock.now} seconds — aborts the sweep
    with {!Deadline_exceeded} once passed.  It is read before each
    block's first scan and every 64 geometries after, so before each
    worker's first scan too, and an aborted chunk is not recorded.  The
    check never changes which design wins or what the search counts.
    @raise Invalid_argument as {!Space.scan_setup} does, or if no
    geometry candidate exists. *)

val search_all :
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
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
    [result.evaluated] covers the whole space.  Never journals.
    [deadline] as in {!search}.  Memory: one record per design point. *)

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
