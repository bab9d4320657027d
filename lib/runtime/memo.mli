(** Bounded, content-addressed memoization with LRU eviction and
    hit/miss accounting.

    A memo fronts an expensive pure computation (periphery / device
    characterization, yield-pin bisection, read-current solves) so that
    capacity sweeps and repeated serving requests stop recomputing
    identical work.  Keys are compared and hashed structurally, exactly
    like the ad-hoc [Hashtbl] caches this module replaces.

    All operations are domain-safe (a single mutex per memo); the
    compute callback of {!find_or_compute} runs outside the lock, so
    concurrent misses on different keys proceed in parallel.  Two
    domains racing on the same key may both compute it — for the pure
    functions memoized here both results are identical, so the cache
    stays deterministic.

    Every memo registers itself in a process-wide registry so the CLI's
    [--stats] flag and the bench harness can report hit rates without
    threading handles around. *)

type ('k, 'v) t

type stats = {
  name : string;
  capacity : int;
  length : int;
  hits : int;
  misses : int;
  evictions : int;
}

val create : ?name:string -> capacity:int -> unit -> ('k, 'v) t
(** An empty memo holding at most [capacity] entries (>= 1, or
    [Invalid_argument]).  [name] labels the registry entry. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup; counts a hit or a miss and refreshes recency on hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or overwrite) as most recent, evicting the least recently
    used entry when over capacity. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_opt] then, on miss, compute-and-[add].  The computation runs
    without holding the memo's lock. *)

val find_or_compute_tiered :
  ('k, 'v) t -> 'k -> load:('k -> 'v option) -> store:('k -> 'v -> unit) ->
  (unit -> 'v) -> 'v
(** Three-tier lookup: memory memo, then [load] (a slower tier such as
    a [Persist.Cache] disk log), then compute.  A [load] hit is
    promoted into the memo; a computed value goes to both the memo and
    [store].  [load]/[store]/compute all run outside the lock. *)

val length : ('k, 'v) t -> int
val stats : ('k, 'v) t -> stats

val hit_rate : stats -> float
(** hits / (hits + misses), or 0 when never consulted. *)

val occupancy : stats -> float
(** length / capacity — how full the cache is (1.0 = at capacity, so
    eviction pressure; near 0 = oversized). *)

val clear : ('k, 'v) t -> unit
(** Drop every entry (statistics are kept). *)

val reset : ('k, 'v) t -> unit
(** Drop every entry and zero the statistics. *)

val registered_stats : unit -> stats list
(** Stats of every memo created so far, in creation order. *)

val reset_all : unit -> unit
(** {!reset} every registered memo — used by benchmarks to compare cold
    runs fairly. *)

val print_stats : unit -> unit
(** Text table of {!registered_stats} (one line per memo) on stdout. *)
