(** Time sources for the observability layer.

    {!now} is a monotonic clock (CLOCK_MONOTONIC via the bechamel stub)
    when the platform provides one, so span totals and derived rates
    survive wall-clock steps; it falls back to [Unix.gettimeofday]
    otherwise.  The absolute value of {!now} is meaningless — only
    differences are. *)

val now : unit -> float
(** Monotonic seconds (arbitrary epoch).  Never steps backwards when
    backed by the monotonic source. *)
