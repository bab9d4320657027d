(** Fixed-size OCaml 5 domain pool with deterministic data-parallel maps.

    The pool owns [jobs - 1] worker domains (the caller participates as
    the remaining worker) fed from a shared task queue.  All map/fold
    entry points chunk their input by index and reduce in index order,
    so for a pure [f] the result is bit-identical to the sequential
    [Array.map f] regardless of the job count or scheduling — parallel
    searches return exactly the design points the sequential code does.

    Each worker domain registers with the observability layer at spawn
    (a named [Obs] slot), so when tracing is on every worker shows up
    as its own timeline with a span per executed chunk.

    Built on stdlib [Domain] / [Mutex] / [Condition] only. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool with [jobs] total workers (clamped to >= 1; default
    {!Domain.recommended_domain_count}).  [jobs = 1] spawns no domains:
    every operation degenerates to its inline sequential equivalent. *)

val jobs : t -> int
(** Total parallelism, including the calling domain. *)

val parmap : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parmap pool f arr] is [Array.map f arr] evaluated on the pool.
    Results land at the index of their input; [chunk] bounds the number
    of consecutive elements per task (default: sized for ~4 tasks per
    worker).  If any [f] raises, one of the exceptions is re-raised in
    the caller after all tasks finish.  Nested calls are permitted (the
    caller helps drain the queue, so progress is guaranteed). *)

val fold :
  t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Index-ordered map-reduce: maps on the pool, then folds the mapped
    values left-to-right in input order on the caller.  Deterministic
    for any [reduce], associative or not. *)

val shutdown : t -> unit
(** Join the worker domains.  Must not race an in-flight [parmap];
    after shutdown the pool runs everything inline (jobs = 1
    semantics).  Idempotent. *)

val set_default_jobs : int -> unit
(** Configure the process-wide default pool used when no explicit pool
    is passed to the search entry points (e.g. the CLI's [--jobs]).
    Replaces (and shuts down) any previously created default pool. *)

val default : unit -> t
(** The process-wide default pool, created on first use (1 job unless
    {!set_default_jobs} raised it). *)

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
