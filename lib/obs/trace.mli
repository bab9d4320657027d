(** Hierarchical spans with per-domain event buffers, a Chrome
    trace-event exporter, request-scoped trace ids, and an always-on
    bounded flight ring.

    Each recording domain appends begin/end events into its own
    growable buffer (registered once, under a mutex, at the domain's
    first event) — the hot path is an array store plus one clock read,
    with no shared lock.  Buffers are drained at export time into the
    Chrome trace-event JSON format, one timeline (tid) per domain slot,
    loadable in Perfetto or chrome://tracing.

    Two independent recorders share the same instrumentation points:

    - {e Tracing} ({!start} / {!stop}) — the explicit [--trace] run:
      growable buffers capture everything until exported with {!write}.
      [`Fine] detail also enables the per-geometry spans the search
      layer guards with {!fine_active}; [`Coarse] keeps only the
      structural spans.
    - The {e flight ring} ({!arm_flight}) — a fixed-size per-domain
      overwrite-oldest ring of recent coarse spans that a long-running
      daemon keeps armed for its whole life.  {!flight_events} returns
      the retained window; {!Flight} turns it into postmortem dump
      files.

    Events carry the current {e trace context} — a request-scoped id
    set by the serving path around each request — so every span
    recorded while handling a request can be attributed to it in the
    exported timeline ([args.trace_id] in the Chrome JSON). *)

type phase =
  | B | E       (** span begin/end pairs, recorded while tracing *)
  | I           (** zero-duration marker *)
  | X of float  (** complete span with its duration in seconds —
                    recorded at span close when only the flight ring is
                    listening, so a span costs one ring slot, not two *)

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : float;   (** seconds since {!start} / first {!arm_flight} *)
  ev_slot : int;   (** recording domain's {!Control.slot} *)
  ev_ctx : string; (** trace context at record time; [""] = none *)
}

val start : ?detail:[ `Fine | `Coarse ] -> unit -> unit
(** Clear all buffers and begin recording (default [`Fine]). *)

val stop : unit -> unit
(** Stop recording; buffered events stay available for {!write}. *)

val active : unit -> bool
(** Recording into the trace buffers or the flight ring. *)

val fine_active : unit -> bool
(** Tracing (not just flight-recording), at [`Fine] detail — gates
    high-volume per-candidate spans. *)

(** {2 Request context} *)

val get_context : unit -> string option

val with_context : string -> (unit -> 'a) -> 'a
(** Run with the context set, restoring the previous value
    (exception-safe). *)

(** {2 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f]: wrap [f] in begin/end events when recording
    (exception-safe); just [f ()] otherwise. *)

(** {2 Flight ring} *)

val arm_flight : unit -> unit
(** Record every coarse span into a per-domain ring of 4096 events,
    overwriting the oldest. *)

val disarm_flight : unit -> unit

val flight_events : unit -> event list
(** The retained ring contents across all domains, oldest first per
    domain, merged in timestamp order. *)

val epoch : unit -> float
(** The clock value [ev_ts] is measured from (0.0 before any {!start}
    or {!arm_flight}) — lets {!Flight} place log lines on the same time
    axis as span events. *)

(** {2 Export} *)

val events : unit -> event list
(** All buffered trace events, sorted by timestamp (stable per
    domain). *)

val chrome_string_of_events : event list -> string
(** An arbitrary event list as one Chrome trace-event JSON document,
    with process/thread-name metadata per slot and [args.trace_id] on
    context-tagged events. *)

val write : out_channel -> int
(** Write every buffered event ({!chrome_string_of_events} of
    {!events}) and a newline to the channel; returns the event
    count. *)
