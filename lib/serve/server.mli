(** The optimizer-as-a-service daemon: a select-driven serve loop over
    Unix-domain (and optionally TCP) listeners speaking the
    length-prefixed {!Protocol} over {!Frame}s.

    Concurrency model: client connections multiplex on one event loop;
    admitted requests queue (bounded — over-admission answers [Busy]
    immediately rather than building unbounded latency) and evaluate
    one at a time on the process's shared {!Runtime.Pool} (the CLI's
    [--jobs]), so a single query already saturates the machine and two
    queries never fight for cores.  All requests share the process-wide
    warm {!Runtime.Memo} tier and the [--cache-dir] disk tier: a
    repeated query is a cache hit (~µs) regardless of which connection
    asks.

    Deadlines: each request's budget (its own [deadline_ms], or the
    server default) starts at admission.  An expired request is
    answered [Deadline] without evaluating; one that expires mid-search
    is cancelled via {!Opt.Exhaustive.Deadline_exceeded} and answered
    [Deadline] — the server and its caches stay consistent because an
    aborted search stores nothing.

    Shutdown: SIGINT / SIGTERM (when [install_signals]) or the
    [shutdown] endpoint put the loop into drain mode — no new
    connections or requests are admitted (late arrivals get
    [Shutting_down]), queued requests are answered, then listeners
    close and {!run} returns.  A second signal exits immediately.

    Telemetry: per-endpoint counters ([serve.req.*]) and latency
    histograms ([serve.queue_wait], [serve.handle.*], [serve.e2e])
    feed [--stats], the [stats] endpoint and BENCH_serve.json.

    Observability (on by default; the bench harness turns it off to
    measure its own overhead): every parsed request runs under a trace
    id — the client's, or a server-generated [t-<pid>-<n>] — echoed in
    the response, stamped on every span and log line recorded while
    handling it, and wrapped in a [serve.request.<endpoint>] span.  The
    latency histograms get {!Obs.Window}ed views (rotated from the
    serve loop) so [stats] and [metrics] report recent p50/p99
    alongside cumulative, with the SLO counters (deadline misses, busy
    rejections, frame errors) windowed the same way.  {!Obs.Flight} is
    armed for the server's lifetime; a deadline miss, internal error,
    over-[slow_ms] response or SIGQUIT dumps the recent span/log rings
    as a Perfetto-loadable file in [flight_dir].

    Monitoring: any connection whose first bytes are ["GET "] is served
    as one plain-HTTP exchange — [GET /metrics] answers the Prometheus
    text exposition ({!Metrics.render}), [/healthz] answers [ok] — so a
    stock Prometheus scrapes the same TCP listener the frame protocol
    uses. *)

type config = {
  socket_path : string option;  (** Unix-domain listener (unlinked on exit) *)
  tcp : (string * int) option;  (** optional (host, port) TCP listener *)
  max_queue : int;              (** admission bound (default 64) *)
  default_deadline_ms : float option;
      (** budget for requests that set none; [None] = unlimited *)
  install_signals : bool;       (** drain on SIGINT/SIGTERM (default true) *)
  observability : bool;
      (** trace ids, windowed metrics and the flight recorder
          (default true; the bench baseline turns it off) *)
  flight_dir : string option;   (** flight-dump directory; [None] = temp dir *)
  slow_ms : float option;
      (** responses slower than this log a warning and dump the flight
          ring; [None] disables the slow-request dump *)
}

val default_config : config
(** No listeners (callers must set at least one), queue of 64, no
    default deadline, signals installed, observability on, temp-dir
    flight dumps, no slow threshold.  Every connection decodes frames
    of at most {!Frame.max_frame_default} bytes. *)

type summary = {
  connections : int;  (** accepted over the server's lifetime *)
  served : int;       (** requests answered [Ok] *)
  errors : int;       (** requests answered with an error *)
}

val run : config -> summary
(** Serve until drained.  Raises [Invalid_argument] when no listener is
    configured and [Unix.Unix_error] when binding fails (e.g. a stale
    socket path on another filesystem, a privileged TCP port). *)
