(** Prometheus text exposition (format 0.0.4) of the serving telemetry.

    {!render} walks the same registries the [stats] endpoint reads and
    prints them in the exposition grammar a stock Prometheus scrape
    parses — all names under the [sram_opt_] prefix:

    - every [serve.*] {!Runtime.Telemetry} counter as a
      [..._total] counter;
    - every {!Obs.Window}-tracked SLO counter as
      [sram_opt_serve_events_window{event=...,window=...}] gauges
      (increments within the trailing 10s/60s/300s windows);
    - every registered latency window as a cumulative summary
      ([..._seconds{quantile=...}], [_sum], [_count]) plus windowed
      quantile gauges ([..._seconds_window{window=...,quantile=...}]);
    - every {!Obs.Histogram.Ratio} histogram as a [..._ratio] summary
      whose HELP line is the histogram's [help];
    - memo cache hits/misses/hit-rate/occupancy per cache;
    - GC allocation totals and heap size;
    - an [sram_opt_build_info] marker.

    The same string is served as the [metrics] frame endpoint's payload
    and verbatim over the plain [GET /metrics] HTTP shim (see
    DESIGN.md §9). *)

val render : unit -> string
