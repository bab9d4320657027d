(** Log-bucketed latency histograms, mergeable across domains.

    64 buckets spaced by a factor of sqrt(2) from a 1 ns floor cover
    1 ns to ~4.3 s — every latency in this codebase — with <= 21%
    relative quantization error per bucket.  Counts are sharded per
    domain slot ({!Control.slot}), so {!observe} touches only the
    calling domain's own cache lines: no lock, no contention on the hot
    path.  {!snapshot} merges the shards exactly (bucket counts add).

    Hot call sites record {e sampled} latencies: {!tick} fires on every
    [sample]-th call per slot, dividing the ~60 ns clock cost by the
    sample factor while leaving percentile estimates unbiased for the
    i.i.d.-ish latency streams measured here.  Recording is gated on
    {!Control.is_enabled}; when disabled, {!tick} and {!time} cost one
    atomic load.

    Histograms register by name in a process registry (like
    [Telemetry.counter]) so [--stats] and the bench harness can report
    every site without threading handles.

    A histogram records seconds unless created with another {!measure};
    the renderers read the unit from the snapshot.  A timed code region
    ({!span}) is recorded here and nowhere else: its histogram's count
    and sum are the region's calls and total time. *)

type t

type measure =
  | Seconds
  | Ratio  (** dimensionless, e.g. a relative gap *)

val create : ?unit:measure -> ?help:string -> ?sample:int -> string -> t
(** Get or create the histogram registered under this name (parameters
    are only applied on first creation).  [unit] is what it records
    (default [Seconds]); [help] is its one-line description for the
    Prometheus exposition.  [sample] is the per-slot sampling period of
    {!tick} / {!time} (default 1: every call). *)

val observe : t -> float -> unit
(** Record one latency (seconds) into the calling domain's shard.
    Unconditional — callers gate on {!tick} or {!Control.is_enabled}. *)

val major_collections : unit -> int
(** Current [Gc] major-collection count; bracket a timed region with
    two reads to learn whether a slow sample straddled a major slice
    (allocates one [Gc.stat] record — only call on sampled paths). *)

val observe_gc : t -> float -> int -> unit
(** [observe_gc h dt gc_delta] is {!observe} plus GC-coincidence
    accounting: when [gc_delta > 0] (the {!major_collections} delta
    across the timed region) the sample is counted in the snapshot's
    [gc_coincident] tally, so p99/max outliers can be attributed to —
    or exonerated from — collector interference. *)

val tick : t -> bool
(** [false] when recording is disabled or this call is not a sampling
    point; [true] on every [sample]-th call per slot when enabled.  The
    caller then times the operation and {!observe}s it. *)

val time : t -> (unit -> 'a) -> 'a
(** [time h f] runs [f], observing its latency when {!tick} fires.
    Convenience form; allocates a closure, so prefer the explicit
    {!tick}/{!observe} pattern on allocation-sensitive paths. *)

type timer
(** A timed site: a name, and the unsampled seconds histogram of that
    name, created on the site's first recorded call. *)

val timer : string -> timer
(** Allocates no histogram; sites create their timer once, at load
    time. *)

val span : timer -> (unit -> 'a) -> 'a
(** [span tm f] runs [f] inside the trace span named after [tm] and,
    when recording is enabled, observes its wall time (exceptions
    included) into [tm]'s histogram.  The one instrumentation point
    of the structural layers: [--trace], [--stats] and the stats
    endpoint all read what it records. *)

val bucket_of : t -> float -> int
(** Index of the bucket a value lands in (clamped to the range). *)

type snapshot = {
  name : string;
  unit : measure;
  help : string;
  sample : int;       (** sampling period the histogram records at *)
  lo : float;
  count : int;        (** recorded observations (samples, not calls) *)
  sum : float;
  min_s : float;      (** +inf when empty *)
  max_s : float;      (** -inf when empty *)
  gc_coincident : int;
  (** samples whose timed region straddled >= 1 major GC slice
      (recorded via {!observe_gc}; 0 for plain {!observe} sites) *)
  buckets : int array;
}

val snapshot : t -> snapshot
(** Merge the per-slot shards.  Concurrent {!observe}s may tear a
    snapshot by a count or two; quiesce recording for exact numbers. *)

val bucket_bounds : snapshot -> int -> float * float
(** [(lower, upper)] edges of a bucket; bucket 0's lower edge is 0. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff newer older]: the observations recorded between two snapshots
    of the same histogram — counts, bucket counts, sum and gc tallies
    subtract (exactly, for the integer fields; the sum in one float
    subtraction, so a diff against a zero baseline reproduces the
    cumulative sum bit-for-bit).  min/max are re-estimated from the
    surviving buckets' bounds, tightened by the cumulative extrema —
    valid clamps for {!percentile}, not the exact in-window extrema.
    [Invalid_argument] when the bucket layouts differ.  This is the
    windowed-metrics primitive: {!Obs.Window} keeps cumulative
    snapshots at rotation points and serves any trailing window as one
    [diff]. *)

val percentile : snapshot -> float -> float
(** [percentile s 0.99]: linear interpolation inside the covering
    bucket, clamped to the observed [min_s, max_s]; monotone in the
    requested fraction.  0 when empty. *)

val mean : snapshot -> float

val per_call : snapshot -> bool
(** An unsampled [Seconds] histogram: every call is recorded, so its
    [count] and [sum] are the timed site's calls and total seconds. *)

val snapshots : unit -> snapshot list
(** Every registered histogram, sorted by name. *)

val reset_all : unit -> unit

val print_report :
  ?channel:out_channel -> counters:(string * int) list -> unit -> unit
(** Table of non-empty histograms: samples, total (for {!per_call}
    histograms), p50/p90/p99, max, mean, the GC-coincident sample count
    and a rate.  Seconds print with a time suffix, ratios as plain
    numbers.  A {!per_call} histogram that shares its name with one of
    [counters] gets that count per second of its total as the rate
    (e.g. evaluations per second for ["exhaustive.search"]). *)
