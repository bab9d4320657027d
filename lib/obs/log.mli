(** Leveled structured logger, replacing ad-hoc [Printf.eprintf] calls.

    Lines go to stderr (or {!set_channel}) as

    {v [   0.123] warn  spice: operating point did not fully converge v}

    with seconds-since-startup, the level and a section tag.  The level
    defaults to [Warn]; the [SRAM_OPT_LOG] environment variable sets the
    initial level, the CLI's [--log-level] overrides it.  Formatting of
    suppressed messages still runs ([Printf.ksprintf]), so keep log
    calls off hot paths — they are for lifecycle events, not per-eval
    chatter.

    Lines emitted while a request-scoped trace id is set
    ({!Trace.with_context}) carry a [trace_id=...] suffix, and warn+
    lines are also delivered to the {!set_sink} hook (regardless of the
    console level) so the flight recorder retains recent warnings even
    when the console is quiet. *)

type level = Quiet | Error | Warn | Info | Debug

val of_string : string -> level option
(** Parses ["quiet"|"off"|"none"], ["error"], ["warn"|"warning"],
    ["info"], ["debug"] (case-insensitive). *)

val to_string : level -> string

val set_level : level -> unit

val set_channel : out_channel -> unit
(** Redirect output (tests); default stderr. *)

val set_sink : (float -> level -> string -> string -> string -> unit) option -> unit
(** Install (or clear) a secondary consumer of warn+ lines:
    [f ts level section message trace_id] runs under the log lock for
    every warn/error message, independent of the console level.  Used
    by {!Flight} to keep recent warnings in its ring; keep the sink
    cheap and non-raising. *)

val warn : section:string -> ('a, unit, string, unit) format4 -> 'a
val info : section:string -> ('a, unit, string, unit) format4 -> 'a
val debug : section:string -> ('a, unit, string, unit) format4 -> 'a
