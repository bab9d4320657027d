(** Checkpoint journal for long sweeps.

    Searches append one record per completed geometry chunk, keyed by a
    task signature (everything the result depends on) and a chunk
    index.  [--resume] replays the journal; chunks already present are
    skipped and their stored winners folded back in, reproducing a
    bit-identical final result (see DESIGN.md §8). *)

type t

val create :
  path:string -> ?resume:bool -> ?checkpoint_every:int -> unit ->
  (t, string) result
(** [resume:false] (default) truncates any existing journal;
    [resume:true] recovers the valid prefix and replays it.
    [checkpoint_every] is the chunk size in geometries (default 64,
    clamped to >= 1). *)

val checkpoint_every : t -> int
val replayed : t -> int
(** Number of distinct completed chunks recovered at open. *)

val completed : t -> task:string -> chunk:int -> Json.t option
(** The stored payload for a chunk, if it was already completed. *)

val completed_for : t -> task:string -> (int * Json.t) list
(** All completed chunks for a task (unordered). *)

val record : t -> task:string -> chunk:int -> Json.t -> unit
(** Journals a completed chunk.  Real write failures degrade with a
    warning; [Faults.Injected] propagates (it models process death). *)

val close : t -> unit

(** {2 Ambient default} — set once by the CLI so searches pick the
    journal up without parameter threading. *)

val set_default : t option -> unit
val default : unit -> t option
