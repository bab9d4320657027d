(** Windowed (recent-traffic) views over cumulative {!Histogram}s and
    monotone counters, for long-running processes.

    A lifetime histogram answers "what has the p99 ever been"; a serving
    daemon needs "what is the p99 {e now}".  Each window keeps a ring of
    cumulative snapshots taken at rotation points (default 1 s apart,
    300 retained); the trailing window over the last [k] intervals is
    one {!Histogram.diff} between the live snapshot and the entry [k]
    rotations ago.  Because the entries are cumulative — not
    per-interval deltas re-merged — window counts and bucket counts are
    exact, and the full-history window reproduces the cumulative
    histogram bit-for-bit (the QCheck property in test_obs).

    Rotation is driven by the owner's event loop ({!maybe_rotate} every
    iteration costs one clock read); nothing here spawns a domain.
    Registered windows and tracked counters are enumerated by
    {!report} / {!counter_report} for the [stats] endpoint, [--stats]
    and the Prometheus exposition. *)

type t

val create : Histogram.t -> t
(** Get or create the window registered under the histogram's name,
    with a ring of 300 intervals. *)

val track : string -> (unit -> int) -> unit
(** Register a monotone counter source (e.g. a [Telemetry] counter's
    current value) to be sampled at every rotation, so
    {!counter_report} can expose windowed deltas — SLO counters like
    deadline misses and busy rejections per minute. *)

val rotate : t -> unit
(** Force one rotation of a single window (tests). *)

val rotate_all : unit -> unit
(** Force one rotation of every window and tracked counter. *)

val maybe_rotate : ?now:float -> unit -> unit
(** Rotate everything once per elapsed period since the last rotation
    (capped at the ring size); cheap no-op within a period.  Event
    loops call this every iteration. *)

val current_period : unit -> float

val merged : t -> intervals:int -> Histogram.snapshot
(** The trailing window covering the last [intervals] rotations (plus
    the part-interval since the last rotation).  Falls back to the
    creation-time baseline — i.e. the full recorded history — when
    fewer rotations are retained. *)

val cumulative : t -> Histogram.snapshot
(** The live cumulative snapshot of the underlying histogram. *)

val retained : t -> int
(** Rotations currently held (saturates at [intervals]). *)

val name : t -> string

val find : string -> t option

val report :
  unit -> (string * Histogram.snapshot * (string * Histogram.snapshot) list) list
(** Every registered window, sorted by name:
    [(name, cumulative, [(window label, windowed snapshot); ...])] with
    one entry per standard window: 10 s, 60 s and 300 s. *)

val counter_report : unit -> (string * int * (string * int) list) list
(** Every tracked counter: [(name, current value, windowed deltas)]. *)

val reset_all : unit -> unit
(** Drop every window and tracked counter (tests and forked children). *)
