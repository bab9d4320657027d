(** The flight recorder: bounded always-on capture of the recent past,
    dumped on demand as a Perfetto-loadable trace file.

    While armed, two rings run continuously with fixed memory cost —
    {!Trace}'s per-domain span ring and a ring of recent warn+ log
    lines (fed via {!Log.set_sink}, independent of the console level).
    {!dump} freezes both into one Chrome trace-event file, so a
    deadline miss, internal error, slow request or SIGQUIT in a
    long-running daemon yields the span timeline and warnings leading
    up to it without an explicit [--trace] run.  Span and log events
    carry the request trace id they were recorded under
    ([args.trace_id] in the exported JSON). *)

type log_entry = {
  le_ts : float;  (** absolute clock at emit *)
  le_slot : int;
  le_level : Log.level;
  le_section : string;
  le_text : string;
  le_ctx : string;  (** trace id at emit; [""] = none *)
}

val arm : ?dir:string -> unit -> unit
(** Arm both rings (4096 span events per domain, 256 warn+ lines) and
    set the dump directory (default: the system temp dir). *)

val disarm : unit -> unit

val armed : unit -> bool

val set_dir : string -> unit
val dir : unit -> string

val set_max_dumps : int -> unit
(** Cap on files {!dump} will write over the process lifetime (default
    64) — a crash loop must not fill the disk. *)

val dumps_written : unit -> int

val recent_logs : unit -> log_entry list
(** The retained warn+ lines, oldest first. *)

val dump : reason:string -> ?trace_id:string -> unit -> string option
(** Write the retained spans and log lines (plus a ["flight.dump:
    <reason>"] marker carrying [trace_id]) as one Chrome trace file in
    {!dir}; returns the path, or [None] when the dump cap is reached or
    the write fails.  Never raises.

    The filename is
    [flight-<pid>-<seq>-<reason>[-<trace_id>].json]: the monotonic
    per-process sequence makes two dumps in the same second distinct,
    and the sanitized trace id (when given) links the file to the
    request that triggered it. *)
