(** The framework's records as {!Persist.Json} trees, for the CLI's
    [--json] outputs, the stats endpoint, the bench files and the
    goldens.  The tree and its pretty emitter are re-exported, so
    [Json_out.Obj] and [Json_out.to_string_pretty] are
    [Persist.Json]'s. *)

type t = Persist.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string_pretty : ?indent:int -> t -> string
(** {!Persist.Json.to_string_pretty}. *)

(** {1 Conversions for the framework's records} *)

val of_metrics : Array_model.Array_eval.metrics -> t

val of_design_row : Experiments.design_row -> t

val of_headline : Framework.headline -> t

val design_table_json :
  ?capacities:int list -> unit -> t
(** The full Table 4 / Figure 7 dataset as a JSON array. *)

(** {1 Runtime telemetry export} *)

val of_memo_stats : Runtime.Memo.stats -> t

val of_histogram : Obs.Histogram.snapshot -> t
(** One latency histogram as name / samples / mean / min / max /
    p50 / p90 / p99 (seconds).  The snapshot must be non-empty:
    an empty one has infinite min/max, which JSON cannot express. *)

val histograms_json : unit -> t
(** Every registered {!Obs.Histogram} with at least one sample. *)

val of_window_slice : string -> Obs.Histogram.snapshot -> t
(** One trailing-window view: window label, sample count, sum, mean and
    p50/p90/p99 — all well-defined (0) for an empty window, so slices
    are always emittable (unlike {!of_histogram}). *)

val windows_json : unit -> t option
(** The ["windows"] section of the stats schema: the rotation period,
    every {!Obs.Window}-registered histogram as cumulative +
    per-window slices, and every tracked SLO counter as total +
    per-window deltas.  [None] when nothing registered a window (one-
    shot runs), keeping the non-serving schemas unchanged. *)

val runtime_stats_json : unit -> t
(** Default-pool job count, telemetry counters and spans (one span row
    per {!Obs.Histogram.per_call} histogram that recorded), every memo
    cache's hit/miss/occupancy statistics, and all non-empty latency
    histograms — the CLI's [--stats --json] payload.  When the process
    has served requests (any [serve.*] counter is nonzero) a ["server"]
    section repeats the request/admission counters with the prefix
    stripped, so the serving bench and `stats` endpoint share this
    schema; a serving process likewise adds the ["windows"] section
    ({!windows_json}), and a run with an armed {!Obs.Search} journal a
    ["search_journal"] summary.  The full schema is documented in
    DESIGN.md §7 and pinned by the [stats.json] golden. *)

(** {1 Search-journal export (Obs.Search)} *)

val of_search_event : Obs.Search.event -> t
(** Non-finite fields (EDP of a prune event, V_SSC of a whole-line
    event) are omitted, never emitted as invalid JSON. *)

val of_search_summary : Obs.Search.summary -> t

val search_journal_json : unit -> t
(** [{"summary": ..., "events": [...]}] — the convergence curve
    [--search-log] writes and BENCH_explain.json embeds.  Events are in
    timestamp order. *)

(** {1 Attribution and explanation export} *)

val of_attribution : Array_model.Array_eval.attribution -> t
(** The ordered bit-exact term lists, the reference metrics, a
    [consistent_bitwise] flag (re-checked at emission), and the
    display-weighted E_total rollup. *)

val of_sensitivity : Opt.Explain.axis list -> t

val of_pareto : Opt.Explain.provenance -> t
