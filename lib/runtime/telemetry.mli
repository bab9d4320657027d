(** Process-wide named counters.

    Counters are atomic (safe to bump from pool workers).  The search
    layers count evaluations and prunes here, the persistence layer its
    records and cache traffic, the server its requests; the CLI's
    [--stats] flag, the stats endpoint and the bench harness read them
    back.  Timed regions are not recorded here but in
    {!Obs.Histogram.span}'s histograms; a histogram and a counter may
    share a name (e.g. ["exhaustive.search"]), and the report then
    derives a rate — counts per second of the region's time, which is
    how evals/sec is published. *)

type counter

val counter : string -> counter
(** Get or create the counter with this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val snapshot : unit -> (string * int) list
(** Every counter's value, sorted by name. *)

val reset : unit -> unit
(** Zero every counter.  Only the bench harness and the tests reset,
    between runs. *)

val print_report : ?channel:out_channel -> unit -> unit
(** Text table of the counters. *)
