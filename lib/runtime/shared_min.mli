(** A monotonically decreasing score shared across worker domains.

    Searches publish each incumbent score here so that other workers can
    prune against it.  The value only moves down (CAS retry loop), so a
    reader sees either [infinity] or some score that a finished
    evaluation actually achieved — a safe incumbent to prune against:
    stale reads only make pruning less aggressive, never wrong. *)

type t

val create : unit -> t
(** Starts at [infinity] (nothing published — nothing prunes). *)

val get : t -> float

val publish : t -> float -> unit
(** Lower the shared value to [x] if [x] is smaller; no-op otherwise. *)

val publish_improved : t -> float -> bool
(** Like {!publish}, and reports whether [x] actually lowered the
    value.  Lets an observer (the search journal) piggyback on the CAS
    the search already pays instead of re-reading the shared cell. *)
