(** Append-only record log: length-prefixed JSON frames with per-record
    CRC32 and a schema/version/git-commit header, plus prefix-keeping
    crash recovery and atomic snapshot compaction.

    Format: a 6-byte magic ["SRLG1\n"], then frames of
    [u32-LE length | u32-LE crc32 | payload].  The first frame is the
    header.  See DESIGN.md §8 for the crash model.

    Opening a log reads the file once and scans its frames in that one
    string: each frame's CRC is taken and its payload checked as JSON in
    place ({!Json.valid}), building no tree.  The first frame whose
    length, CRC or JSON fails ends the kept prefix.  {!open_spans} hands
    back the bytes and each record's span; {!open_append} and {!read}
    decode every record. *)

type header = {
  schema : string;
  version : int;
  git_commit : string;
  meta : (string * Json.t) list;
}

type t
(** A writer handle.  Appends are mutex-protected and safe to share
    across domains. *)

val create : path:string -> ?commit:string -> schema:string -> unit -> t
(** Creates (or truncates) a log at [path] and writes the header:
    version 1, no meta.  Creates the parent directory if missing (one
    level).  [commit] overrides the recorded provenance (default:
    [git_commit ()]) — tests use it to exercise the mismatch path. *)

val open_spans :
  path:string -> schema:string -> unit ->
  (t * string * (int * int) list, string) result
(** Reopens an existing log for appending, first recovering its valid
    prefix (a torn tail is truncated away).  Returns the writer, the
    file's bytes as read, and the [(pos, len)] span of each valid data
    record's payload in those bytes, in write order;
    [Json.of_substring bytes pos len] decodes one.  Creates a fresh log
    (bytes [""], no spans) if [path] does not exist.  Fails on
    magic/schema mismatch, on a version other than 1, and on a
    git-commit mismatch against [git_commit ()] — replayed results must
    come from the same build of the model.  A commit of ["unknown"] on
    either side disables the commit check.  Untimed: the caller's open
    is what [persist.replay] times. *)

val open_append :
  path:string -> ?expect_commit:string -> schema:string -> unit ->
  (t * Json.t list, string) result
(** {!open_spans} with every replayed data record decoded, in write
    order; timed as [persist.replay].  The commit check is against
    [expect_commit] (default: [git_commit ()]). *)

val append : t -> Json.t -> unit
(** Appends one record.  Raises [Sys_error] on real write failure
    (after restoring the record boundary) and [Faults.Injected] when an
    armed fault fires.  OS-level failures ([Unix.Unix_error], e.g.
    ENOSPC/EIO) are re-raised as [Sys_error] so callers have a single
    degradation signal. *)

val close : t -> unit

type recovery = {
  header : header;
  records : Json.t list;     (** valid data records, in write order *)
  recovered : int;           (** [List.length records] *)
  discarded_bytes : int;     (** torn-tail bytes dropped *)
  valid_end : int;           (** offset just past the last valid frame *)
}

val read : path:string -> (recovery, string) result
(** Reads and validates a log without opening it for writing.
    Recovery is prefix-keeping: scanning stops at the first bad
    length/CRC/JSON frame and everything after it is discarded. *)

val write_snapshot : path:string -> schema:string -> Json.t list -> unit
(** Atomically replaces [path] with a fresh log containing [records]:
    written to [path ^ ".tmp"], fsynced, then renamed into place. *)

val git_commit : unit -> string
(** Short git commit of the work tree this binary was built from, or
    ["unknown"] when the build found no git; stamped at build time. *)
