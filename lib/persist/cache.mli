(** Named on-disk caches backing [Runtime.Memo] (the disk tier of
    [Memo.find_or_compute_tiered]).

    Handles are created once at module-init time and stay inactive —
    [find] returns [None], [add] is a no-op — until [set_dir] points
    the layer at a directory (the CLI's [--cache-dir]).  Each cache
    then lives in [<dir>/<name>.rlog] and is compacted on open when
    duplication gets heavy.  Keys are strings built by the caller;
    values are JSON.  Write failures (e.g. ENOSPC) degrade the cache to
    memory-only with a warning rather than failing the computation.

    Opening a log reads it once and indexes each key to the byte span
    of its latest value in those bytes: {!Record_log.open_spans} checks
    each frame in the one JSON pass that lists its members
    ({!Json.member_spans}), and the index reads those spans without a
    second scan.  A value is decoded into a tree on its key's first
    [find].  The open, index and any compaction are timed as
    [persist.replay]. *)

type t

val create : name:string -> unit -> t
(** Registers a cache handle.  [name] becomes the log filename. *)

val set_dir : string option -> unit
(** Activates every registered cache under the given directory
    (creating it if needed, one level), replaying existing logs; [None]
    deactivates them all.  Called by the CLI, once, before work.  A
    directory that cannot be created, or a path that is not one, logs
    one warning and leaves every cache inactive: the run answers from
    memory alone. *)

val active : t -> bool
(** Whether a directory backs the cache, so that {!find} can answer and
    {!add} stores.  A caller checks it before building a key or a value
    it would otherwise throw away. *)

val find : t -> string -> Json.t option
(** Telemetry: [persist.cache.hit] / [persist.cache.miss]. *)

val add : t -> string -> Json.t -> unit
(** Stores in memory and appends to the log ([persist.cache.store]). *)
