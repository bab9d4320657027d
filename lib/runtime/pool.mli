(** Fixed-size OCaml 5 domain pool with deterministic data-parallel maps.

    The pool owns [jobs - 1] worker domains (the caller participates as
    the remaining worker) fed from a shared task queue.  [parmap]
    chunks its input by index and writes each result at its input's
    index, so for a pure [f] the result is bit-identical to the sequential
    [Array.map f] regardless of the job count or scheduling — parallel
    searches return exactly the design points the sequential code does.

    Each worker domain registers with the observability layer at spawn
    (a named [Obs] slot), so when tracing is on every worker shows up
    as its own timeline with a span per executed chunk.

    Built on stdlib [Domain] / [Mutex] / [Condition] only. *)

type t

val parmap : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parmap pool f arr] is [Array.map f arr] evaluated on the pool.
    Results land at the index of their input; [chunk] bounds the number
    of consecutive elements per task (default: sized for ~4 tasks per
    worker).  If any [f] raises, one of the exceptions is re-raised in
    the caller after all tasks finish.  Nested calls are permitted (the
    caller helps drain the queue, so progress is guaranteed). *)

val set_default_jobs : int -> unit
(** Size the process-wide pool every search runs on (the CLI's
    [--jobs], the server's, a bench's or a test's job count; clamped to
    >= 1).  Replaces the previous pool, whose worker domains are joined
    (it must not race an in-flight [parmap]); a handle to it still works,
    running everything inline on the caller (jobs = 1 semantics). *)

val default : unit -> t
(** The process-wide pool, created on first use with the job count
    {!set_default_jobs} last set (1 until then).  [jobs = 1] spawns no
    domains: every operation runs inline, in sequence. *)

val default_jobs : unit -> int
(** Job count the default pool has (or will be created with). *)

(** {2 Per-domain storage}

    Reusable per-domain scratch (e.g. scan buffers): one value per
    domain, created lazily by [init] on that domain's first
    {!get_local}.  Workers of every pool — and the caller — each get
    their own copy, so values need no synchronization as long as they
    don't escape the domain.  Keys should be created once at module
    initialization; each {!local} call allocates a fresh DLS slot. *)

type 'a local

val local : (unit -> 'a) -> 'a local
(** Register a per-domain value with its initializer. *)

val get_local : 'a local -> 'a
(** This domain's copy, created on first use. *)
