(** Search-event journal: how the incumbent converged, not just where.

    While armed, the optimizer layers append structured events —
    incumbent improvements (timestamp, objective score, EDP, design
    coordinates), checkpoint-chunk completions, and a deterministic
    1-in-{!prune_sample} sample of bound prunes — into one bounded,
    mutex-protected buffer.  The journal is strictly observational: no
    search decision ever reads it, so winners are bit-identical with
    the journal on or off at any job count.

    Disarmed cost is one atomic load per would-be event ({!enabled} is
    the hot-path gate, same discipline as [Control.is_enabled]); armed
    cost is bounded by the event cap and measured by the
    [bench explain] overhead gate (< 3%).

    Timestamps are seconds since {!arm} on the monotonic clock.  Under
    a pool, events from different domains may interleave slightly out
    of order; {!events} sorts by timestamp before returning. *)

type kind =
  | Incumbent  (** a search published a new best score *)
  | Chunk      (** a checkpoint chunk completed *)
  | Prune      (** a whole-line bound prune (sampled) *)

type design = {
  nr : int;
  nc : int;
  n_pre : int;
  n_wr : int;
  vssc : float;  (** volts; [nan] when the event covers a whole line *)
}

type event = {
  t : float;       (** seconds since {!arm} *)
  kind : kind;
  source : string;
  (** the engine: ["exhaustive"], ["local_search"], ["anneal"],
      ["nsga2"], ["surrogate"] *)
  score : float;   (** objective value (for [Prune]: the admissible bound) *)
  edp : float;     (** EDP of the design, [nan] when not materialized *)
  design : design option;
  detail : int;    (** [Chunk]: chunk index; otherwise 0 *)
}

val kind_name : kind -> string

val prune_sample : int
(** Prune events are journaled once per this many prunes (counters
    still count every one).  Always a power of two, so hot loops can
    sample with [land (prune_sample - 1)] instead of [mod]. *)

val arm : ?capacity:int -> unit -> unit
(** Start journaling into a fresh buffer of at most [capacity] events
    (default 8192); events past the cap are counted in {!dropped}
    rather than stored. *)

val disarm : unit -> unit
(** Stop journaling.  The buffer and counters survive until the next
    {!arm} so a finished run can still be exported. *)

val enabled : unit -> bool
(** The hot-path gate: one atomic load. *)

val record_incumbent :
  source:string -> score:float -> edp:float -> design:design -> unit

val record_chunk : source:string -> index:int -> score:float -> unit
(** [score] is the chunk's best (or [infinity] for an empty chunk). *)

val record_prune : source:string -> bound:float -> design:design -> unit
(** Counts every call; journals one in {!prune_sample}. *)

val record_sampled_prune :
  source:string -> bound:float -> design:design -> unit
(** Journal one prune event the caller already sampled; does not touch
    the prune counter.  Pair with {!note_prunes} from hot loops that
    keep their own prune count — the armed per-prune cost then stays a
    single atomic load. *)

val note_prunes : int -> unit
(** Fold [n] prunes into the counter without journaling; searches call
    it once at completion, so mid-search summaries lag by at most one
    in-flight search. *)

val events : unit -> event list
(** Journaled events in timestamp order. *)

type summary = {
  incumbents : int;      (** improvement events recorded *)
  chunks : int;
  prunes : int;          (** every prune counted, not just journaled *)
  journaled : int;       (** events actually stored *)
  dropped : int;         (** events past the buffer cap *)
  best_score : float;
  (** lowest incumbent score, tracked outside the buffer so it survives
      the cap; [infinity] if none *)
  first_improvement_s : float;  (** [nan] if no incumbents *)
  last_improvement_s : float;   (** [nan] if no incumbents *)
}

val summary : unit -> summary

val print_report : ?channel:out_channel -> unit -> unit
(** Human-readable convergence summary (the [--stats] block); silent
    when nothing was journaled. *)
