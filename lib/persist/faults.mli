(** Deterministic fault injection at record-log write boundaries.

    Used by the crash-recovery tests and the [SRAM_OPT_FAULTS] env var
    (comma-separated specs, e.g. ["kill:3,enospc:7"]).  Record indices
    count {e data} records appended process-wide since the last
    [disarm_all]; log headers are exempt. *)

exception Injected of string
(** Models a process death.  Once raised, the layer is sticky-dead:
    every subsequent append also raises until [disarm_all]. *)

type fault =
  | Short_write of int
      (** Write only a prefix of data record N, then die — leaves a
          torn record for recovery to discard. *)
  | Enospc of int
      (** Fail data record N's write with a genuine
          [Unix.Unix_error (ENOSPC, ..)] — surfaced by [Record_log] as
          [Sys_error], like any real OS write failure — once;
          subsequent writes succeed. *)
  | Kill of int
      (** Die cleanly at the boundary {e after} data record N — the
          log is valid, the process is gone. *)

val arm : fault -> unit
val disarm_all : unit -> unit
(** Clears all armed faults, the process-wide record counter, and the
    sticky-dead flag.  Tests must call this in cleanup. *)

val load_env : unit -> unit
(** Arms every spec in [$SRAM_OPT_FAULTS]; malformed specs are logged
    via [Obs.Log.warn] and skipped. *)

val injected_count : unit -> int
(** Value of the [persist.faults.injected] telemetry counter. *)

(**/**)

(* Record_log internals. *)
val on_record : unit -> unit option
val after_record : unit -> unit
val short_write_die : int -> 'a
